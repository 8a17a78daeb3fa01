// Package image defines the synthetic binary image format produced by
// internal/compiler and consumed by the analyses. An image is the analogue
// of a stripped PE/ELF executable: a code section of encoded instructions,
// a read-only data section holding vtables, a function entry table (the
// paper treats function-boundary identification as an orthogonal, solved
// problem, citing ByteWeight), and an import table (stripped binaries retain
// imports; the allocator import is how object allocation sites are
// recognized, exactly as `operator new` is recognized in real binaries).
//
// Ground truth travels in a separate Metadata value — the analogue of RTTI
// records and debug symbols in a non-stripped build (§6.2 of the paper).
// Strip removes it; the analysis pipeline only ever receives stripped
// images, which the evaluation harness enforces.
package image

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"sort"
)

// Section base addresses. Chosen disjoint so that address classification
// (code vs rodata vs import) is a range check, as it is in a real loader.
const (
	CodeBase   uint64 = 0x00401000
	RodataBase uint64 = 0x00600000
	ImportBase uint64 = 0x00700000
)

// Well-known import names.
const (
	// ImportAlloc is the allocator ("operator new"). A direct call to it
	// yields a fresh object pointer in RegRet.
	ImportAlloc = "operator_new"
	// ImportFree is the deallocator ("operator delete").
	ImportFree = "operator_delete"
	// ImportAbort terminates the program (referenced by the purecall stub).
	ImportAbort = "abort"
)

// Image is a loaded (or freshly compiled) binary image.
type Image struct {
	// Name labels the image (benchmark name); informational only.
	Name string
	// Code holds the encoded instructions, based at CodeBase.
	Code []byte
	// Rodata holds read-only data (vtables), based at RodataBase.
	Rodata []byte
	// Entries lists function entry addresses in ascending order. Function i
	// extends from Entries[i] to Entries[i+1] (or the end of Code).
	Entries []uint64
	// Imports maps import thunk addresses (in the ImportBase range) to
	// import names.
	Imports map[uint64]string
	// Meta carries ground truth (RTTI/debug analogue). nil in a stripped
	// image.
	Meta *Metadata
}

// Metadata is the ground-truth side channel of a non-stripped build. The
// induced binary type hierarchy recorded here is the post-optimization
// hierarchy (after abstract-class elimination), matching §6.2: the ground
// truth is what RTTI records describe in the binary, not the source tree.
type Metadata struct {
	// Types describes every emitted vtable.
	Types []TypeMeta
	// FuncNames maps function entry addresses to source-level names.
	FuncNames map[uint64]string
	// SourceParents maps source class name to source primary base name for
	// every class with a base, including classes optimized out of the
	// binary. Used only for reporting (e.g. the Fig. 9 discussion).
	SourceParents map[string]string
}

// TypeMeta describes one emitted vtable (binary type).
type TypeMeta struct {
	// Name is the source class name.
	Name string
	// VTable is the address of the vtable in rodata.
	VTable uint64
	// Parent is the vtable address of the induced (post-optimization)
	// primary parent, or 0 for a root.
	Parent uint64
	// SecondaryParents are vtable addresses of induced secondary parents
	// (multiple inheritance).
	SecondaryParents []uint64
	// Secondary marks a secondary-subobject vtable of a multiple-inheritance
	// class (it shares Name with the primary vtable).
	Secondary bool
}

// TypeByVTable returns the TypeMeta for a vtable address, or nil.
func (m *Metadata) TypeByVTable(vt uint64) *TypeMeta {
	for i := range m.Types {
		if m.Types[i].VTable == vt {
			return &m.Types[i]
		}
	}
	return nil
}

// TypeByName returns the primary TypeMeta for a class name, or nil.
func (m *Metadata) TypeByName(name string) *TypeMeta {
	for i := range m.Types {
		if m.Types[i].Name == name && !m.Types[i].Secondary {
			return &m.Types[i]
		}
	}
	return nil
}

// Strip returns a copy of the image with all ground truth removed — the
// stripped binary the paper's tool receives.
func (img *Image) Strip() *Image {
	out := &Image{
		Name:    img.Name,
		Code:    append([]byte(nil), img.Code...),
		Rodata:  append([]byte(nil), img.Rodata...),
		Entries: append([]uint64(nil), img.Entries...),
		Imports: make(map[uint64]string, len(img.Imports)),
	}
	for k, v := range img.Imports {
		out.Imports[k] = v
	}
	return out
}

// ContentDigest returns a SHA-256 digest of the image's analysis-relevant
// content: code, rodata, entries, and imports. The display name and any
// ground-truth metadata are excluded — two images that differ only in
// those produce identical analyses, so they share a digest. The digest is
// the image half of the snapshot cache key (internal/snapshot).
func (img *Image) ContentDigest() [32]byte {
	h := sha256.New()
	var b [8]byte
	writeLen := func(n int) {
		binary.LittleEndian.PutUint64(b[:], uint64(n))
		h.Write(b[:])
	}
	writeU64h := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	writeLen(len(img.Code))
	h.Write(img.Code)
	writeLen(len(img.Rodata))
	h.Write(img.Rodata)
	writeLen(len(img.Entries))
	for _, e := range img.Entries {
		writeU64h(e)
	}
	keys := make([]uint64, 0, len(img.Imports))
	for k := range img.Imports {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	writeLen(len(keys))
	for _, k := range keys {
		writeU64h(k)
		name := img.Imports[k]
		writeLen(len(name))
		h.Write([]byte(name))
	}
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// FunctionDigest returns a stable SHA-256 digest of function i's
// analysis-relevant content: its entry address and its raw body bytes.
// The entry address is included deliberately — extraction artifacts embed
// absolute addresses (call(f) events, structural observations), so a
// byte-identical body relocated to a different address must not share a
// digest with the original. The consequence is that only in-place edits
// (same-length patches) preserve the digests of the untouched functions;
// a layout-shifting edit re-keys every function after it, which costs
// reuse but never correctness.
func (img *Image) FunctionDigest(i int) [32]byte {
	start, end, err := img.FuncBounds(img.Entries[i])
	if err != nil {
		// Entries[i] is by definition a function entry; FuncBounds on it
		// cannot fail for a validated image.
		panic(err)
	}
	h := sha256.New()
	h.Write([]byte("rockfn\x00"))
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], start)
	h.Write(b[:])
	h.Write(img.Code[start-CodeBase : end-CodeBase])
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// FunctionDigests returns one FunctionDigest per function, in entry-table
// order. It is the image-level function-digest table the incremental
// snapshot lane diffs against a prior version of the binary.
func (img *Image) FunctionDigests() [][32]byte {
	out := make([][32]byte, len(img.Entries))
	for i := range img.Entries {
		out[i] = img.FunctionDigest(i)
	}
	return out
}

// InCode reports whether addr lies within the code section.
func (img *Image) InCode(addr uint64) bool {
	return addr >= CodeBase && addr < CodeBase+uint64(len(img.Code))
}

// InRodata reports whether addr lies within the rodata section.
func (img *Image) InRodata(addr uint64) bool {
	return addr >= RodataBase && addr < RodataBase+uint64(len(img.Rodata))
}

// IsImport reports whether addr is an import thunk.
func (img *Image) IsImport(addr uint64) bool {
	_, ok := img.Imports[addr]
	return ok
}

// IsEntry reports whether addr is a function entry.
func (img *Image) IsEntry(addr uint64) bool {
	i := sort.Search(len(img.Entries), func(i int) bool { return img.Entries[i] >= addr })
	return i < len(img.Entries) && img.Entries[i] == addr
}

// FuncBounds returns the [start,end) byte range of the function entered at
// entry, or an error if entry is not a function entry.
func (img *Image) FuncBounds(entry uint64) (start, end uint64, err error) {
	i := sort.Search(len(img.Entries), func(i int) bool { return img.Entries[i] >= entry })
	if i >= len(img.Entries) || img.Entries[i] != entry {
		return 0, 0, fmt.Errorf("image: 0x%x is not a function entry", entry)
	}
	start = entry
	if i+1 < len(img.Entries) {
		end = img.Entries[i+1]
	} else {
		end = CodeBase + uint64(len(img.Code))
	}
	return start, end, nil
}

// ReadRodataWord reads an 8-byte little-endian word from rodata at addr.
func (img *Image) ReadRodataWord(addr uint64) (uint64, bool) {
	if addr < RodataBase || addr+8 > RodataBase+uint64(len(img.Rodata)) {
		return 0, false
	}
	off := addr - RodataBase
	return binary.LittleEndian.Uint64(img.Rodata[off : off+8]), true
}

// Serialization ---------------------------------------------------------------
//
// The on-disk format is:
//
//	magic "RBIN" | version u32 | name len u32 | name |
//	code len u32 | code | rodata len u32 | rodata |
//	entry count u32 | entries u64... |
//	import count u32 | (addr u64, name len u32, name)... |
//	meta flag u8 | [meta JSON len u32 | meta JSON]

const (
	magic   = "RBIN"
	version = 1
)

// Marshal serializes the image (including metadata, if present) into a
// buffer sized exactly to the encoding, so a retained result carries no
// slack capacity.
func (img *Image) Marshal() ([]byte, error) {
	var mj []byte
	if img.Meta != nil {
		var err error
		if mj, err = json.Marshal(img.Meta); err != nil {
			return nil, fmt.Errorf("image: marshal metadata: %w", err)
		}
	}
	keys := make([]uint64, 0, len(img.Imports))
	size := len(magic) + 4 + 3*4 + len(img.Name) + len(img.Code) + len(img.Rodata) +
		4 + 8*len(img.Entries) + 4 + 1
	for k, name := range img.Imports {
		keys = append(keys, k)
		size += 8 + 4 + len(name)
	}
	if img.Meta != nil {
		size += 4 + len(mj)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })

	buf := make([]byte, 0, size)
	buf = append(buf, magic...)
	buf = binary.LittleEndian.AppendUint32(buf, version)
	buf = appendBytes(buf, []byte(img.Name))
	buf = appendBytes(buf, img.Code)
	buf = appendBytes(buf, img.Rodata)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(img.Entries)))
	for _, e := range img.Entries {
		buf = binary.LittleEndian.AppendUint64(buf, e)
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(keys)))
	for _, k := range keys {
		buf = binary.LittleEndian.AppendUint64(buf, k)
		buf = appendBytes(buf, []byte(img.Imports[k]))
	}
	if img.Meta == nil {
		return append(buf, 0), nil
	}
	buf = append(buf, 1)
	return appendBytes(buf, mj), nil
}

// Load parses a serialized image.
func Load(data []byte) (*Image, error) {
	r := &reader{data: data}
	if string(r.bytes(4)) != magic {
		return nil, fmt.Errorf("image: bad magic")
	}
	if v := r.u32(); v != version {
		return nil, fmt.Errorf("image: unsupported version %d", v)
	}
	img := &Image{Imports: map[uint64]string{}}
	img.Name = string(r.lenBytes())
	img.Code = append([]byte(nil), r.lenBytes()...)
	img.Rodata = append([]byte(nil), r.lenBytes()...)
	// Element counts are validated against the bytes actually remaining
	// before looping: a corrupted count must fail fast, not drive a
	// multi-gigabyte allocation loop on a truncated reader.
	n := int(r.u32())
	if r.err == nil && n > r.remaining()/8 {
		return nil, fmt.Errorf("image: entry count %d exceeds input size", n)
	}
	if n > 0 {
		img.Entries = make([]uint64, 0, n)
	}
	for i := 0; i < n && r.err == nil; i++ {
		img.Entries = append(img.Entries, r.u64())
	}
	n = int(r.u32())
	if r.err == nil && n > r.remaining()/12 { // addr u64 + name length u32
		return nil, fmt.Errorf("image: import count %d exceeds input size", n)
	}
	for i := 0; i < n && r.err == nil; i++ {
		addr := r.u64()
		img.Imports[addr] = string(r.lenBytes())
	}
	if r.err != nil {
		return nil, r.err
	}
	hasMeta := r.bytes(1)
	if r.err != nil {
		return nil, r.err
	}
	if hasMeta[0] == 1 {
		mj := r.lenBytes()
		if r.err != nil {
			return nil, r.err
		}
		img.Meta = &Metadata{}
		if err := json.Unmarshal(mj, img.Meta); err != nil {
			return nil, fmt.Errorf("image: unmarshal metadata: %w", err)
		}
	}
	if err := img.Validate(); err != nil {
		return nil, err
	}
	return img, nil
}

// Validate performs basic consistency checks on the image.
func (img *Image) Validate() error {
	if len(img.Code)%16 != 0 {
		return fmt.Errorf("image: code length %d not a multiple of the instruction size", len(img.Code))
	}
	prev := uint64(0)
	for _, e := range img.Entries {
		if !img.InCode(e) {
			return fmt.Errorf("image: entry 0x%x outside code section", e)
		}
		if e <= prev {
			return fmt.Errorf("image: entries not strictly ascending at 0x%x", e)
		}
		if (e-CodeBase)%16 != 0 {
			return fmt.Errorf("image: entry 0x%x not instruction-aligned", e)
		}
		prev = e
	}
	for a := range img.Imports {
		if a < ImportBase {
			return fmt.Errorf("image: import thunk 0x%x below import base", a)
		}
	}
	return nil
}

type reader struct {
	data []byte
	pos  int
	err  error
}

// remaining returns how many unread bytes are left.
func (r *reader) remaining() int { return len(r.data) - r.pos }

func (r *reader) bytes(n int) []byte {
	if r.err != nil {
		return make([]byte, n)
	}
	if r.pos+n > len(r.data) {
		r.err = fmt.Errorf("image: truncated input at offset %d", r.pos)
		return make([]byte, n)
	}
	b := r.data[r.pos : r.pos+n]
	r.pos += n
	return b
}

func (r *reader) u32() uint32 { return binary.LittleEndian.Uint32(r.bytes(4)) }
func (r *reader) u64() uint64 { return binary.LittleEndian.Uint64(r.bytes(8)) }

func (r *reader) lenBytes() []byte {
	n := int(r.u32())
	if r.err != nil {
		return nil
	}
	if n < 0 || r.pos+n > len(r.data) {
		r.err = fmt.Errorf("image: bad length %d at offset %d", n, r.pos)
		return nil
	}
	return r.bytes(n)
}

func appendBytes(buf, b []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(b)))
	return append(buf, b...)
}
