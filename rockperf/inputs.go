package main

import (
	"fmt"
	"math/rand"

	"repro/internal/bench"
	"repro/internal/compiler"
	"repro/internal/image"
	"repro/internal/synth"
)

// input is one generated binary. The program only ever sees img (stripped)
// or its serialized bytes; meta is the ground truth the checks score
// against.
type input struct {
	name  string
	img   *image.Image
	meta  *image.Metadata
	bytes []byte
	// bench is the Table 2 benchmark the image was built from, if any.
	bench *bench.Benchmark
}

func newInput(name string, img *image.Image, meta *image.Metadata) (*input, error) {
	if meta == nil {
		meta = img.Meta
	}
	stripped := img.Strip()
	data, err := stripped.Marshal()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	return &input{name: name, img: stripped, meta: meta, bytes: data}, nil
}

// deepInput builds the -incr base image: synth seed 97 with depth 6,
// branch 4 and reps 4, compiled with the default options; families is 6
// for the benchmark image.
func deepInput(families int) (*input, error) {
	p := synth.DefaultParams(97)
	p.Families = families
	p.MaxDepth = 6
	p.MaxBranch = 4
	p.UseReps = 4
	prog, _ := synth.Generate(p)
	img, err := compiler.Compile(prog, compiler.DefaultOptions())
	if err != nil {
		return nil, err
	}
	return newInput(fmt.Sprintf("deep-%d", families), img, nil)
}

// wideInput builds the -scale generator's single wide family of n types
// (a root with n-1 direct children, debug-friendly compile, minimal
// per-type usage) for generator seed.
func wideInput(n int, seed int64) (*input, error) {
	p := synth.DefaultParams(seed)
	p.Families = 1
	p.Shape = synth.ShapeWide
	p.MaxDepth = 2
	p.MaxBranch = n - 1
	p.MethodsPerClass = 1
	p.FieldsPerClass = 0
	p.UseReps = 1
	prog, _ := synth.Generate(p)
	img, err := compiler.Compile(prog, compiler.DebugFriendlyOptions())
	if err != nil {
		return nil, err
	}
	return newInput(fmt.Sprintf("wide-%d-seed%d", n, seed), img, nil)
}

// corpusInputs builds the Table 2 programs and the adversarial synth grid
// (bench.All, bench.SynthGrid), optionally only the first table2/grid.
func corpusInputs(table2, grid int) ([]*input, error) {
	var out []*input
	benches := bench.All()
	if table2 > 0 {
		benches = benches[:min(table2, len(benches))]
	}
	for _, b := range benches {
		img, meta, err := b.Build()
		if err != nil {
			return nil, err
		}
		in, err := newInput(b.Name, img, meta)
		if err != nil {
			return nil, err
		}
		in.bench = b
		out = append(out, in)
	}
	cfgs := bench.SynthGrid()
	if grid > 0 {
		cfgs = cfgs[:min(grid, len(cfgs))]
	}
	for _, c := range cfgs {
		img, meta, err := c.Build()
		if err != nil {
			return nil, err
		}
		in, err := newInput(c.Name, img, meta)
		if err != nil {
			return nil, err
		}
		out = append(out, in)
	}
	return out, nil
}

// patchInput returns a copy of base with the function at entry patched
// (bench.PatchFunction: one field-write event removed).
func patchInput(base *input, entry uint64) (*input, error) {
	img := base.img.Strip()
	if err := bench.PatchFunction(img, entry); err != nil {
		return nil, err
	}
	in, err := newInput(fmt.Sprintf("%s+%#x", base.name, entry), img, base.meta)
	if err != nil {
		return nil, err
	}
	in.bench = base.bench
	return in, nil
}

// freshSeed derives the generator seed of the i-th never-seen image of a
// run from the workload seed, far from every fixed generator seed the
// corpus and the deep and wide images use.
func freshSeed(seed int64, i int) int64 { return 1_000_000 + (seed%100_000)*1_000 + int64(i) }

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
