package image

import (
	"testing"
)

func sampleImage() *Image {
	return &Image{
		Name:    "sample",
		Code:    make([]byte, 64),
		Rodata:  []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16},
		Entries: []uint64{CodeBase, CodeBase + 32},
		Imports: map[uint64]string{ImportBase: ImportAlloc, ImportBase + 16: ImportAbort},
		Meta: &Metadata{
			Types: []TypeMeta{
				{Name: "A", VTable: RodataBase},
				{Name: "B", VTable: RodataBase + 8, Parent: RodataBase},
			},
			FuncNames:     map[uint64]string{CodeBase: "f"},
			SourceParents: map[string]string{"B": "A"},
		},
	}
}

func TestMarshalLoadRoundTrip(t *testing.T) {
	img := sampleImage()
	data, err := img.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Load(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != img.Name || len(got.Code) != len(img.Code) || len(got.Entries) != 2 {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	if got.Meta == nil || len(got.Meta.Types) != 2 || got.Meta.Types[1].Parent != RodataBase {
		t.Fatalf("metadata lost: %+v", got.Meta)
	}
	if got.Imports[ImportBase] != ImportAlloc {
		t.Fatal("imports lost")
	}
}

// TestMarshalSizedExactly: Marshal's result has no slack capacity (every
// retained serialized image would otherwise hold it), with and without
// metadata, and Load sizes Entries exactly.
func TestMarshalSizedExactly(t *testing.T) {
	withMeta := sampleImage()
	for _, img := range []*Image{withMeta, withMeta.Strip()} {
		data, err := img.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if cap(data) != len(data) {
			t.Errorf("meta=%v: Marshal returned len %d, cap %d", img.Meta != nil, len(data), cap(data))
		}
		got, err := Load(data)
		if err != nil {
			t.Fatal(err)
		}
		if cap(got.Entries) != len(img.Entries) {
			t.Errorf("meta=%v: Load sized Entries cap %d for %d entries", img.Meta != nil, cap(got.Entries), len(img.Entries))
		}
	}
}

func TestLoadRejectsCorrupt(t *testing.T) {
	img := sampleImage()
	data, _ := img.Marshal()
	if _, err := Load(data[:8]); err == nil {
		t.Error("truncated image accepted")
	}
	bad := append([]byte(nil), data...)
	bad[0] = 'X'
	if _, err := Load(bad); err == nil {
		t.Error("bad magic accepted")
	}
}

func TestStripRemovesGroundTruth(t *testing.T) {
	img := sampleImage()
	s := img.Strip()
	if s.Meta != nil {
		t.Fatal("Strip left metadata")
	}
	if img.Meta == nil {
		t.Fatal("Strip mutated the original")
	}
	// Mutating the stripped copy must not touch the original.
	s.Code[0] = 0xff
	if img.Code[0] == 0xff {
		t.Fatal("Strip shares code storage")
	}
}

func TestFuncBoundsAndRanges(t *testing.T) {
	img := sampleImage()
	start, end, err := img.FuncBounds(CodeBase)
	if err != nil || start != CodeBase || end != CodeBase+32 {
		t.Fatalf("bounds of first function: %x..%x err=%v", start, end, err)
	}
	_, end, err = img.FuncBounds(CodeBase + 32)
	if err != nil || end != CodeBase+64 {
		t.Fatalf("last function must end at code end, got %x err=%v", end, err)
	}
	if _, _, err := img.FuncBounds(CodeBase + 16); err == nil {
		t.Error("non-entry accepted")
	}
	if !img.InCode(CodeBase) || img.InCode(CodeBase+64) {
		t.Error("InCode range wrong")
	}
	if w, ok := img.ReadRodataWord(RodataBase); !ok || w == 0 {
		t.Error("ReadRodataWord failed")
	}
	if _, ok := img.ReadRodataWord(RodataBase + 8); !ok {
		t.Error("read of last full word failed")
	}
	if _, ok := img.ReadRodataWord(RodataBase + 16); ok {
		t.Error("out-of-range read succeeded")
	}
}

func TestValidateCatchesBadEntries(t *testing.T) {
	img := sampleImage()
	img.Entries = []uint64{CodeBase + 8} // unaligned
	if err := img.Validate(); err == nil {
		t.Error("unaligned entry accepted")
	}
	img = sampleImage()
	img.Entries = []uint64{CodeBase + 9999}
	if err := img.Validate(); err == nil {
		t.Error("out-of-code entry accepted")
	}
	img = sampleImage()
	img.Code = img.Code[:63]
	if err := img.Validate(); err == nil {
		t.Error("ragged code section accepted")
	}
}

// TestContentDigest pins the snapshot cache's image half: the digest is
// stable across calls and copies, ignores the display name and the
// ground-truth metadata (analysis-identical images share a cache slot),
// and moves whenever any analysis-relevant content moves.
func TestContentDigest(t *testing.T) {
	img := sampleImage()
	base := img.ContentDigest()
	if base != img.ContentDigest() {
		t.Fatal("digest not stable across calls")
	}
	if got := img.Strip().ContentDigest(); got != base {
		t.Error("stripping metadata changed the digest")
	}
	renamed := sampleImage()
	renamed.Name = "elsewhere"
	renamed.Meta = nil
	if got := renamed.ContentDigest(); got != base {
		t.Error("name/metadata changes changed the digest")
	}

	mutate := func(name string, f func(*Image)) {
		m := sampleImage().Strip()
		f(m)
		if m.ContentDigest() == base {
			t.Errorf("%s change kept the digest", name)
		}
	}
	mutate("code", func(m *Image) { m.Code[10] ^= 1 })
	mutate("rodata", func(m *Image) { m.Rodata[0] ^= 1 })
	mutate("entries", func(m *Image) { m.Entries[1]++ })
	mutate("import name", func(m *Image) { m.Imports[ImportBase] = "other" })
	mutate("import addr", func(m *Image) {
		m.Imports[ImportBase+32] = m.Imports[ImportBase]
		delete(m.Imports, ImportBase)
	})
	// Length-prefixed hashing: moving a byte across the code/rodata
	// boundary must not collide.
	mutate("section boundary", func(m *Image) {
		m.Code = m.Code[:len(m.Code)-1]
		m.Rodata = append([]byte{0}, m.Rodata...)
	})
}

// TestFunctionDigests pins the incremental lane's function half: digests
// are stable, an in-place patch moves exactly the patched function's
// digest, and a body relocated to a different entry address never keeps
// its digest (extraction artifacts embed absolute addresses).
func TestFunctionDigests(t *testing.T) {
	img := sampleImage().Strip()
	base := img.FunctionDigests()
	if len(base) != len(img.Entries) {
		t.Fatalf("digest table has %d entries for %d functions", len(base), len(img.Entries))
	}
	if base[0] == base[1] {
		t.Error("distinct functions share a digest")
	}
	again := img.FunctionDigests()
	for i := range base {
		if base[i] != again[i] {
			t.Fatalf("function %d digest not stable", i)
		}
		if base[i] != img.FunctionDigest(i) {
			t.Fatalf("FunctionDigest(%d) disagrees with the table", i)
		}
	}

	// In-place patch inside function 1 (bytes 32..64): only digest 1 moves.
	patched := sampleImage().Strip()
	patched.Code[40] ^= 0xff
	got := patched.FunctionDigests()
	if got[0] != base[0] {
		t.Error("patch in function 1 moved function 0's digest")
	}
	if got[1] == base[1] {
		t.Error("patch in function 1 kept its digest")
	}

	// Same body at a different entry address: digest must move.
	moved := sampleImage().Strip()
	moved.Entries = []uint64{CodeBase, CodeBase + 16}
	movedDigests := moved.FunctionDigests()
	// moved function 1 is bytes 16..64 (all zero) vs base function 0's
	// bytes 0..32 (all zero): same leading content class, different entry.
	if movedDigests[1] == base[1] {
		t.Error("relocated entry kept its digest")
	}
}
