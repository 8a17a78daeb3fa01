// Package slmkl rehosts the paper's behavioral evidence source — the
// per-family SLM divergence sweep (§4.3) — behind the evidence.Provider
// interface. Every edge score is the slm.DistanceCalculator's own
// Distance value (the sweep only batches the pairs by target), so the
// sparse, dense and replayed sweeps agree bit for bit and the
// equivalence pins in internal/eval hold by construction, not by
// tolerance.
package slmkl

import (
	"context"
	"sync"

	"repro/internal/evidence"
	"repro/internal/obs"
	"repro/internal/pool"
	"repro/internal/slm"
)

// Fan-out grains for the chunked sweeps (pool.ForEachChunk): each claimed
// range must amortize the shared index counter over enough work without
// starving workers on small families. The values predate the provider
// split; grain choice never affects scores (every slot is index-owned).
const (
	// modelGrain groups word-distribution derivations; a claimed range is
	// also the batch the multi-model scoring kernel blocks over
	// (slm.DistanceCalculator.PrecomputeBatch).
	modelGrain = 8
	// targetGrain groups the sparse sweep's targets: each target builds
	// its ln q vector once and reduces all of its candidate parents
	// against it (slm.DistanceCalculator.DistancesTo).
	targetGrain = 4
	// cellGrain groups dense-matrix cells (the Dense reporting mode;
	// diagonal cells are nearly free, so ranges are larger).
	cellGrain = 256
)

// lqPool recycles the sparse sweep's per-chunk ln q vectors (one family
// word set long). Allocating one per chunk instead adds a quarter of the
// family's distribution memory in garbage per sweep; on the rockperf wide
// workload (2-core x86-64 container) that raised peak RSS from ~141 to
// ~155 MiB.
var lqPool = sync.Pool{New: func() any { return new([]float64) }}

// Config parameterizes the sweep. Metric and RootWeightFactor are
// behavioral (they appear in the hierarchy canon); the rest only shape
// execution.
type Config struct {
	// Metric selects the pairwise distance (DKL by default; JS variants
	// for the §6.4 ablation).
	Metric slm.Metric
	// RootWeightFactor scales the virtual-root weight relative to the
	// family's largest pairwise distance (Heuristic 4.1); must exceed 1.
	RootWeightFactor float64
	// Dense computes the full n×n ordered-pair matrix (Scores.Dense) with
	// the root weight from the exact dense maximum, instead of the sparse
	// admissible-pair sweep with the PairBound upper bound. Entries
	// present in both modes are bit-identical.
	Dense bool
	// Workers/Pool bound and share the fan-out (see core.Config).
	Workers int
	Pool    *pool.Shared
	// Scratch supplies reusable per-goroutine query scratch; nil uses the
	// process-wide default pool.
	Scratch *slm.ScratchPool
	// Obs, when non-nil, receives the sweep's pair counters and batch
	// spans. Results are unaffected.
	Obs *obs.Bus
}

// Provider is the SLM/KL evidence provider.
type Provider struct {
	cfg Config
}

// New returns the provider.
func New(cfg Config) *Provider { return &Provider{cfg: cfg} }

// Name implements evidence.Provider.
func (p *Provider) Name() string { return evidence.NameSLM }

// Score runs the divergence sweep for one family. Each member's word
// distribution over the family's shared word set is derived exactly once
// (the DistanceCalculator memoizes per model, each chunk scored by the
// blocked multi-model batch kernel); then the sweep reduces the cached
// distributions over in.Pairs, one child target at a time — or over all
// n² ordered cells under cfg.Dense — in deterministically-owned chunks.
func (p *Provider) Score(ctx context.Context, in *evidence.FamilyInput) (*evidence.Scores, error) {
	cfg := p.cfg
	calc := slm.NewDistanceCalculator(cfg.Metric, in.Words)
	calc.SetScratchPool(cfg.Scratch)
	calc.SetObserver(cfg.Obs)
	n := len(in.Types)
	calc.Reserve(n)
	if err := pool.ForEachChunk(ctx, cfg.Pool, cfg.Workers, n, modelGrain, func(lo, hi int) {
		calc.PrecomputeBatch(in.Scorers[lo:hi])
	}); err != nil {
		return nil, err
	}
	out := &evidence.Scores{}
	if cfg.Dense {
		fam := in.Types
		dists := make([]float64, n*n)
		if err := pool.ForEachChunk(ctx, cfg.Pool, cfg.Workers, n*n, cellGrain, func(lo, hi int) {
			for k := lo; k < hi; k++ {
				a, b := fam[k/n], fam[k%n]
				if a == b {
					continue
				}
				dists[k] = calc.Distance(in.Scorer(a), in.Scorer(b))
			}
		}); err != nil {
			return nil, err
		}
		cfg.Obs.Add(obs.CntDistPairs, int64(n*(n-1)))
		out.Dense = make(map[[2]uint64]float64, n*(n-1))
		maxD := 0.0
		for k, d := range dists {
			a, b := fam[k/n], fam[k%n]
			if a == b {
				continue
			}
			out.Dense[[2]uint64{a, b}] = d
			if d > maxD {
				maxD = d
			}
		}
		out.Edge = make([]float64, len(in.Pairs))
		for k, pc := range in.Pairs {
			out.Edge[k] = out.Dense[pc]
		}
		out.Root = maxD*cfg.RootWeightFactor + 1
		return out, nil
	}
	// Pairs arrive grouped by child (the canonical layout), and the child
	// is the divergence target, so each run of equal children is one
	// DistancesTo call writing its own slice of Edge.
	var runs []int
	for k := range in.Pairs {
		if k == 0 || in.Pairs[k][1] != in.Pairs[k-1][1] {
			runs = append(runs, k)
		}
	}
	runs = append(runs, len(in.Pairs))
	out.Edge = make([]float64, len(in.Pairs))
	if err := pool.ForEachChunk(ctx, cfg.Pool, cfg.Workers, len(runs)-1, targetGrain, func(lo, hi int) {
		var as []slm.WordScorer
		lq := lqPool.Get().(*[]float64)
		defer lqPool.Put(lq)
		if cap(*lq) < len(in.Words) {
			*lq = make([]float64, len(in.Words))
		}
		for r := lo; r < hi; r++ {
			pairs := in.Pairs[runs[r]:runs[r+1]]
			as = as[:0]
			for _, pc := range pairs {
				as = append(as, in.Scorer(pc[0]))
			}
			calc.DistancesTo(in.Scorer(pairs[0][1]), as, out.Edge[runs[r]:runs[r+1]], *lq)
		}
	}); err != nil {
		return nil, err
	}
	cfg.Obs.Add(obs.CntDistPairs, int64(len(in.Pairs)))
	cfg.Obs.Add(obs.CntDistPairsPruned, int64(n*(n-1)-len(in.Pairs)))
	// PairBound ≥ the true dense maximum, so Heuristic 4.1's "root edges
	// are always the worst choice" ordering survives the sparse sweep.
	out.Root = calc.PairBound(in.Scorers)*cfg.RootWeightFactor + 1
	return out, nil
}
