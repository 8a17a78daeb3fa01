package core

import (
	"os"
	"reflect"
	"testing"

	"repro/internal/compiler"
	"repro/internal/image"
	"repro/internal/pipeline"
	"repro/internal/slm"
	"repro/internal/snapshot"
)

// assertResultsEqual compares two analysis results field by field,
// excluding Funcs and Models (documented nil on warm runs) and the reuse
// level itself.
func assertResultsEqual(t *testing.T, label string, a, b *Result) {
	t.Helper()
	check := func(name string, x, y any) {
		if !reflect.DeepEqual(x, y) {
			t.Errorf("%s: %s diverged", label, name)
		}
	}
	check("VTables", a.VTables, b.VTables)
	check("Structural", a.Structural, b.Structural)
	check("Tracelets", a.Tracelets, b.Tracelets)
	check("Alphabet", a.Alphabet, b.Alphabet)
	check("Frozen", a.Frozen, b.Frozen)
	check("Dist", a.Dist, b.Dist)
	check("Families", a.Families, b.Families)
	check("Hierarchy", a.Hierarchy, b.Hierarchy)
	check("MultiParents", a.MultiParents, b.MultiParents)
}

func analyzeCached(t *testing.T, img *image.Image, cfg Config) *Result {
	t.Helper()
	res, err := Analyze(img, cfg)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	return res
}

// TestSnapshotWarmRunMatchesCold is the satellite acceptance at the core
// level: a warm run restores the whole pipeline from the snapshot
// (SnapshotReuse == LevelHierarchy) and every derived artifact is
// deep-equal to the cold run that wrote it.
func TestSnapshotWarmRunMatchesCold(t *testing.T) {
	img, _ := buildStripped(t, motivating(), compiler.DefaultOptions())
	cfg := DefaultConfig()
	cfg.CacheDir = t.TempDir()

	cold := analyzeCached(t, img, cfg)
	if cold.SnapshotReuse != snapshot.LevelNone {
		t.Fatalf("cold run reused level %d", cold.SnapshotReuse)
	}
	if cold.Funcs == nil || cold.Models == nil {
		t.Fatal("cold run must lift functions and keep builder models")
	}
	warm := analyzeCached(t, img, cfg)
	if warm.SnapshotReuse != snapshot.LevelHierarchy {
		t.Fatalf("warm run reused level %d, want %d", warm.SnapshotReuse, snapshot.LevelHierarchy)
	}
	if warm.Funcs != nil || warm.Models != nil {
		t.Error("warm run must not lift functions or rebuild builder models")
	}
	assertResultsEqual(t, "warm vs cold", cold, warm)
}

// TestSnapshotInvalidateLevels checks the -invalidate granularity: each
// level caps reuse exactly as documented, and every capped rerun still
// reproduces the cold result.
func TestSnapshotInvalidateLevels(t *testing.T) {
	img, _ := buildStripped(t, motivating(), compiler.DefaultOptions())
	cfg := DefaultConfig()
	cfg.CacheDir = t.TempDir()
	cold := analyzeCached(t, img, cfg)

	cases := []struct {
		inv   Invalidate
		level int
	}{
		{InvalidateNone, snapshot.LevelHierarchy},
		{InvalidateHierarchy, snapshot.LevelModels},
		{InvalidateModels, snapshot.LevelExtraction},
		{InvalidateAll, snapshot.LevelNone},
	}
	for _, c := range cases {
		cfg.Invalidate = c.inv
		res := analyzeCached(t, img, cfg)
		if res.SnapshotReuse != c.level {
			t.Errorf("invalidate %d: reused level %d, want %d", c.inv, res.SnapshotReuse, c.level)
		}
		assertResultsEqual(t, "invalidate run vs cold", cold, res)
	}
}

// TestSnapshotPartialReuseOnConfigChange checks the staged-validity chain
// end to end: changing only the distance metric salvages the extraction
// and model sections (LevelModels) and still reproduces a from-scratch run
// under the new metric; changing the tracelet window invalidates
// everything.
func TestSnapshotPartialReuseOnConfigChange(t *testing.T) {
	img, _ := buildStripped(t, motivating(), compiler.DefaultOptions())
	cfg := DefaultConfig()
	cfg.CacheDir = t.TempDir()
	analyzeCached(t, img, cfg) // populate the cache under MetricKL

	jsCfg := cfg
	jsCfg.Metric = slm.MetricJSDivergence
	partial := analyzeCached(t, img, jsCfg)
	if partial.SnapshotReuse != snapshot.LevelModels {
		t.Fatalf("metric change reused level %d, want %d", partial.SnapshotReuse, snapshot.LevelModels)
	}
	jsCold := jsCfg
	jsCold.CacheDir = ""
	fresh := analyzeCached(t, img, jsCold)
	assertResultsEqual(t, "salvaged models vs fresh js run", fresh, partial)

	// The metric-change run overwrote the slot; warm again under JS.
	if again := analyzeCached(t, img, jsCfg); again.SnapshotReuse != snapshot.LevelHierarchy {
		t.Errorf("rewarm after metric change reused level %d", again.SnapshotReuse)
	}

	winCfg := jsCfg
	winCfg.Trace.Window = 5
	if res := analyzeCached(t, img, winCfg); res.SnapshotReuse != snapshot.LevelNone {
		t.Errorf("window change reused level %d, want cold", res.SnapshotReuse)
	}
}

// TestSnapshotCorruptCacheIsMiss corrupts the cached file in place: the
// next run must silently fall back to a cold analysis and repair the slot.
func TestSnapshotCorruptCacheIsMiss(t *testing.T) {
	img, _ := buildStripped(t, motivating(), compiler.DefaultOptions())
	cfg := DefaultConfig()
	cfg.CacheDir = t.TempDir()
	cold := analyzeCached(t, img, cfg)

	entries, err := os.ReadDir(cfg.CacheDir)
	if err != nil || len(entries) != 1 {
		t.Fatalf("cache dir: %v entries, err %v", len(entries), err)
	}
	path := cfg.CacheDir + "/" + entries[0].Name()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	res := analyzeCached(t, img, cfg)
	if res.SnapshotReuse != snapshot.LevelNone {
		t.Fatalf("corrupted snapshot reused level %d", res.SnapshotReuse)
	}
	assertResultsEqual(t, "post-corruption cold vs original", cold, res)
	if warm := analyzeCached(t, img, cfg); warm.SnapshotReuse != snapshot.LevelHierarchy {
		t.Errorf("slot not repaired: level %d", warm.SnapshotReuse)
	}
}

// TestSnapshotAlgoVersionRekeysHierarchy: a snapshot whose hierarchy
// section was written by another version of the hierarchy algorithm (here
// the unversioned kernel that preceded the log-domain KL) shares every
// configuration canon with today's run, yet must only lend its extraction
// and model sections — its distances are never restored.
func TestSnapshotAlgoVersionRekeysHierarchy(t *testing.T) {
	img, _ := buildStripped(t, motivating(), compiler.DefaultOptions())
	cfg := DefaultConfig()
	cfg.CacheDir = t.TempDir()
	cold := analyzeCached(t, img, cfg)
	path := cacheFile(t, cfg.CacheDir)

	stages := append([]pipeline.Stage(nil), cfg.withDefaults().graph(nil).Stages()...)
	for i := range stages {
		if stages[i].Name == "hierarchy" {
			stages[i].Algo = "" // the pre-versioning hierarchy stage
		}
	}
	old, err := pipeline.New([]pipeline.Artifact{pipeline.ArtImage}, stages...)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := snapshot.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Key.FPs[pipeline.SecHierarchy] == old.SectionFingerprint(pipeline.SecHierarchy) {
		t.Fatal("the hierarchy algorithm version does not reach the fingerprint")
	}
	snap.Key.FPs = old.Fingerprints()
	if err := snap.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	res := analyzeCached(t, img, cfg)
	if res.SnapshotReuse != snapshot.LevelModels {
		t.Fatalf("snapshot of another hierarchy algorithm reused level %d, want exactly %d",
			res.SnapshotReuse, snapshot.LevelModels)
	}
	assertResultsEqual(t, "re-solved hierarchy vs cold", cold, res)
}

// TestParseInvalidate pins the CLI spellings.
func TestParseInvalidate(t *testing.T) {
	for s, want := range map[string]Invalidate{
		"": InvalidateNone, "none": InvalidateNone,
		"hierarchy": InvalidateHierarchy, "models": InvalidateModels, "all": InvalidateAll,
	} {
		got, err := ParseInvalidate(s)
		if err != nil || got != want {
			t.Errorf("ParseInvalidate(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseInvalidate("everything"); err == nil {
		t.Error("bad level accepted")
	}
}
