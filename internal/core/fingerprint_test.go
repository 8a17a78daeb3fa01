package core

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/snapshot"
)

// TestFingerprintCompat pins the graph-derived snapshot fingerprints to
// the legacy hand-maintained scheme (one fingerprint per section, hashing
// "tag|canon" with the canon laid out exactly as the pre-pipeline core
// formatted it). Existing .rsnap caches were written under those bytes;
// any divergence silently invalidates every user's cache, so this test
// recomputes the legacy bytes from scratch and compares. The hierarchy
// canon additionally ends in the stage's algorithm version
// ("algo:hierarchy=kl-log"): the log-domain KL kernel re-keys that
// section alone, so snapshots of the earlier kernel keep their
// extraction and model sections but never restore its distances.
func TestFingerprintCompat(t *testing.T) {
	legacy := func(stage, canon string) [32]byte {
		return sha256.Sum256([]byte(stage + "|" + canon))
	}
	check := func(name string, cfg Config) {
		t.Helper()
		cfg = cfg.withDefaults()
		fps := cfg.graph(nil).Fingerprints()
		tr := cfg.Trace.WithDefaults()
		want := [pipeline.NumSections][32]byte{
			pipeline.SecExtraction: legacy("extract", fmt.Sprintf(
				"paths=%d steps=%d unroll=%d window=%d tracelen=%d structural=%v,%v,%v,%v,%v",
				tr.MaxPaths, tr.MaxSteps, tr.MaxUnroll, tr.Window, tr.MaxTraceLen,
				cfg.Structural.DisableSharedSlots, cfg.Structural.DisableInstanceInstalls,
				cfg.Structural.DisableCtorCalls, cfg.Structural.DisableSizeRule,
				cfg.Structural.DisablePurecallRule)),
			pipeline.SecModels: legacy("model", fmt.Sprintf("depth=%d", cfg.SLMDepth)),
			pipeline.SecHierarchy: legacy("hier", fmt.Sprintf(
				"metric=%d rootw=%.17g enumlimit=%d enumeps=%.17g algo:hierarchy=kl-log",
				cfg.Metric, cfg.RootWeightFactor, cfg.EnumLimit, cfg.EnumEps)),
		}
		for sec := pipeline.Section(0); sec < pipeline.NumSections; sec++ {
			if fps[sec] != want[sec] {
				t.Errorf("%s: %s fingerprint diverged from the legacy scheme", name, sec.Tag())
			}
		}
	}

	// The legacy bytes belong to the dense sweep — every pre-sparse
	// snapshot was written by it, and DenseDist must keep reusing them.
	dense := DefaultConfig()
	dense.DenseDist = true
	check("default+dense", dense)

	ablated := DefaultConfig()
	ablated.DenseDist = true
	ablated.SLMDepth = 3
	ablated.Structural.DisableCtorCalls = true
	ablated.Trace.MaxPaths = 7
	ablated.EnumLimit = 5
	ablated.RootWeightFactor = 2.5
	check("ablated+dense", ablated)

	// The default sparse sweep persists a different Dist payload, so its
	// hierarchy section is fingerprinted apart from the legacy bytes —
	// with a pinned marker — while extraction and models stay shared with
	// dense-mode (and pre-sparse) snapshots.
	sparse := DefaultConfig().withDefaults()
	sfps := sparse.graph(nil).Fingerprints()
	dfps := dense.withDefaults().graph(nil).Fingerprints()
	if sfps[pipeline.SecExtraction] != dfps[pipeline.SecExtraction] || sfps[pipeline.SecModels] != dfps[pipeline.SecModels] {
		t.Error("sparse sweep changed the extraction/models fingerprints; pre-sparse snapshots lost staged reuse")
	}
	wantSparse := legacy("hier", fmt.Sprintf(
		"metric=%d rootw=%.17g enumlimit=%d enumeps=%.17g sweep=sparse algo:hierarchy=kl-log",
		sparse.Metric, sparse.RootWeightFactor, sparse.EnumLimit, sparse.EnumEps))
	if sfps[pipeline.SecHierarchy] != wantSparse {
		t.Error("sparse hierarchy fingerprint diverged from the pinned sweep=sparse canon")
	}
	if sfps[pipeline.SecHierarchy] == dfps[pipeline.SecHierarchy] {
		t.Error("sparse and dense sweeps share a hierarchy fingerprint; stale Dist payloads would cross modes")
	}

	// Workers, Pool, and the observer must not influence the key.
	a := DefaultConfig().withDefaults()
	b := a
	b.Workers = 17
	b.Obs = obs.NewBus()
	if a.graph(nil).Fingerprints() != b.graph(nil).Fingerprints() {
		t.Error("workers/observer leaked into the snapshot fingerprints")
	}
}

// TestEvidenceFingerprints pins the fingerprint model of the evidence
// layer: spelling out the default provider set must not change any
// bytes, enabling the subtype provider must re-key the hierarchy section
// alone (the model and extraction sections are evidence-independent),
// and the fusion weights must be part of that key.
func TestEvidenceFingerprints(t *testing.T) {
	def := DefaultConfig().withDefaults().graph(nil).Fingerprints()

	explicit := DefaultConfig()
	explicit.Evidence = []string{"slm"}
	explicit.FuseWeights = map[string]float64{"slm": 1}
	if explicit.withDefaults().graph(nil).Fingerprints() != def {
		t.Error("spelling out the default evidence configuration changed the snapshot fingerprints")
	}

	fused := DefaultConfig()
	fused.Evidence = []string{"slm", "subtype"}
	ffps := fused.withDefaults().graph(nil).Fingerprints()
	if ffps[pipeline.SecExtraction] != def[pipeline.SecExtraction] || ffps[pipeline.SecModels] != def[pipeline.SecModels] {
		t.Error("enabling the subtype provider re-keyed the extraction/models sections; staged reuse lost")
	}
	if ffps[pipeline.SecHierarchy] == def[pipeline.SecHierarchy] {
		t.Error("fused and SLM-only configs share a hierarchy fingerprint; stale edge payloads would cross modes")
	}

	reweighted := fused
	reweighted.FuseWeights = map[string]float64{"subtype": 2}
	rfps := reweighted.withDefaults().graph(nil).Fingerprints()
	if rfps[pipeline.SecHierarchy] == ffps[pipeline.SecHierarchy] {
		t.Error("changing a fusion weight did not change the hierarchy fingerprint")
	}
	if rfps[pipeline.SecExtraction] != def[pipeline.SecExtraction] || rfps[pipeline.SecModels] != def[pipeline.SecModels] {
		t.Error("fusion weights leaked into the extraction/models fingerprints")
	}
}

// TestGraphLevels pins the section→reuse-level correspondence the driver
// relies on when skipping restored stages.
func TestGraphLevels(t *testing.T) {
	g := DefaultConfig().withDefaults().graph(nil)
	for _, st := range g.Stages() {
		if st.Section.Level() < snapshot.LevelExtraction || st.Section.Level() > snapshot.LevelHierarchy {
			t.Errorf("stage %s: section level %d outside the snapshot reuse range", st.Name, st.Section.Level())
		}
	}
}
