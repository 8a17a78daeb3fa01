package slm

import (
	"math"
	"math/rand"
	"testing"
)

// klDivideThenLog is the KL kernel the log-domain one replaced: one divide
// and one Log per word. It lives here only as the reference the new
// kernel is held to within klTolerance.
func klDivideThenLog(pa, pb []float64) float64 {
	d := 0.0
	for i := range pa {
		if pa[i] <= 0 {
			continue
		}
		q := pb[i]
		if q <= 0 {
			q = 1e-300
		}
		d += pa[i] * math.Log(pa[i]/q)
	}
	return d
}

// klTolerance bounds |new − old| for the log-domain KL kernel:
// 1e-12·max(1, |old|). The two differ only in rounding (and in the clamp
// at 0, which removes rounding-negative values of order 1e-17).
func klTolerance(old float64) float64 { return 1e-12 * max(1, math.Abs(old)) }

// randomLogProbs returns a log-probability vector of length n in which
// roughly a fifth of the entries are -Inf, so the derived distribution
// has exact zeros on either side of a pair.
func randomLogProbs(rng *rand.Rand, n int) []float64 {
	lps := make([]float64, n)
	for i := range lps {
		if rng.Intn(5) == 0 {
			lps[i] = math.Inf(-1)
		} else {
			lps[i] = -40 * rng.Float64()
		}
	}
	return lps
}

// TestKLIdenticalIsZero: the divergence of any distribution from itself
// is exactly 0 on every path (the old kernel gave ±1e-17, and a negative
// weight stops the arborescence solver).
func TestKLIdenticalIsZero(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		e := newDistEntry(randomLogProbs(rng, 1+rng.Intn(200)))
		if d := kl(e, e.ps); d != 0 {
			t.Fatalf("trial %d: kl(P, P) = %v", trial, d)
		}
	}
	for trial := 0; trial < 40; trial++ {
		m := randomModel(rng)
		f := m.Freeze()
		words := make([][]int, 1+rng.Intn(30))
		for i := range words {
			words[i] = randomSeq(rng, m.Alphabet(), 6)
		}
		if d := KL(m, f, words); d != 0 {
			t.Fatalf("trial %d: KL(builder, its frozen form) = %v", trial, d)
		}
		calc := NewDistanceCalculator(MetricKL, words)
		if d := calc.Distance(f, f); d != 0 {
			t.Fatalf("trial %d: calculator KL(f, f) = %v", trial, d)
		}
		out := []float64{-1}
		calc.DistancesTo(f, []WordScorer{f}, out, nil)
		if out[0] != 0 {
			t.Fatalf("trial %d: DistancesTo KL(f, f) = %v", trial, out[0])
		}
	}
}

// TestKLMatchesDivideThenLog holds the log-domain kernel to the old
// divide-then-log formula within klTolerance on random vectors with
// zeros, including near-identical pairs where the clamp engages.
func TestKLMatchesDivideThenLog(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.Intn(200)
		la := randomLogProbs(rng, n)
		lb := randomLogProbs(rng, n)
		if trial%4 == 0 { // a near copy: tiny perturbations of la
			for i := range lb {
				lb[i] = la[i] + 1e-9*rng.NormFloat64()
			}
		}
		ea, pb := newDistEntry(la), distFromLogProbs(lb)
		old := klDivideThenLog(ea.ps, pb)
		if got := kl(ea, pb); math.Abs(got-old) > klTolerance(old) || got < 0 {
			t.Fatalf("trial %d (n=%d): log-domain KL %v, divide-then-log %v", trial, n, got, old)
		}
	}
}

// TestDistancesToMatchesDistance: the per-target batch equals the
// single-pair Distance bit for bit, for every ordered pair of a model set
// and all three metrics, whatever the lq scratch it is handed.
func TestDistancesToMatchesDistance(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 20; trial++ {
		alpha := 2 + rng.Intn(12)
		ms := make([]WordScorer, 2+rng.Intn(6))
		for i := range ms {
			m := New(rng.Intn(4), alpha)
			for n := 0; n < 5; n++ {
				m.Train(randomSeq(rng, alpha, 10))
			}
			ms[i] = m.Freeze()
		}
		words := make([][]int, 1+rng.Intn(40))
		for i := range words {
			words[i] = randomSeq(rng, alpha, 8)
		}
		for _, metric := range []Metric{MetricKL, MetricJSDivergence, MetricJSDistance} {
			calc := NewDistanceCalculator(metric, words)
			out := make([]float64, len(ms))
			for bi, b := range ms {
				var lq []float64
				if bi%2 == 1 {
					lq = make([]float64, len(words)+3) // oversized scratch
				}
				calc.DistancesTo(b, ms, out, lq)
				for ai, a := range ms {
					sameBits(t, metric.String()+" DistancesTo", out[ai], calc.Distance(a, b))
					sameBits(t, metric.String()+" vs package Distance", out[ai], Distance(metric, a, b, words))
				}
			}
		}
	}
}

// fixedScorer is a WordScorer stub: the tests below seed a calculator's
// cache with synthetic distributions keyed by these.
type fixedScorer struct{ id int }

func (fixedScorer) LogProbWords(words [][]int, out []float64) []float64 { return out }

// TestDistancesToBelowFloor extends the bit-identity to probabilities
// under the kernel's 1e-300 floor, which no trained model in these tests
// reaches: seeded distributions mix zeros, sub-floor and ordinary values.
func TestDistancesToBelowFloor(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	const n = 64
	words := make([][]int, n)
	calc := NewDistanceCalculator(MetricKL, words)
	ms := make([]WordScorer, 6)
	for i := range ms {
		lps := randomLogProbs(rng, n)
		for j := range lps {
			if rng.Intn(4) == 0 {
				lps[j] = -700 - 20*rng.Float64() // e^-700 ≈ 1e-304
			}
		}
		lps[0] = 0 // keeps the max-shift from lifting the tiny entries
		ms[i] = fixedScorer{i}
		calc.cache[ms[i]] = newDistEntry(lps)
	}
	out := make([]float64, len(ms))
	for _, b := range ms {
		calc.DistancesTo(b, ms, out, nil)
		for ai, a := range ms {
			sameBits(t, "below-floor DistancesTo", out[ai], calc.Distance(a, b))
		}
	}
}

// TestDeepestContextPaths drives each branch of the querier's
// deepest-context table path against the builder, through both a
// table-backed querier and the table-free one-shot path.
func TestDeepestContextPaths(t *testing.T) {
	check := func(name string, m *Model, sym int, hist []int) {
		t.Helper()
		f := m.Freeze()
		want := m.LogProb(sym, hist)
		sameBits(t, name+" (querier)", f.NewQuerier().LogProb(sym, hist), want)
		sameBits(t, name+" (one-shot)", f.LogProb(sym, hist), want)
	}

	// A context with more than 8 distinct successors: the symbol span is
	// binary-searched. Every symbol hits; 15 escapes to the root.
	wide := New(1, 16)
	for s := 0; s < 12; s++ {
		wide.Train([]int{0, s})
	}
	wide.Train([]int{15})
	for s := 0; s < 16; s++ {
		check("wide span", wide, s, []int{0})
	}

	// A context that saw every alphabet symbol cannot escape: an unseen
	// symbol (outside the alphabet) takes the ln 1e-12 miss.
	full := New(1, 3)
	full.Train([]int{0, 0, 0, 1, 0, 2})
	for _, s := range []int{-1, 3, 99} {
		check("full context miss", full, s, []int{0})
		if got := full.Freeze().NewQuerier().LogProb(s, []int{0}); got != math.Log(1e-12) {
			t.Errorf("full context miss for %d: %v, want ln 1e-12", s, got)
		}
	}

	// Escape at the deepest context, then a hit one level down with the
	// deepest context's symbols excluded.
	esc := New(2, 6)
	esc.Train([]int{1, 2, 3})
	esc.Train([]int{4, 2, 5, 5, 5})
	for s := 0; s < 6; s++ {
		check("escape then lower level", esc, s, []int{1, 2})
		check("escape then lower level", esc, s, []int{4, 2})
	}
}
