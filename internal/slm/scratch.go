package slm

import "sync"

// Scratch bundles the reusable query-side buffers one goroutine needs to
// derive word distributions: a rebindable Querier (the allocation-free
// frozen-trie query kernel) and the intermediate log-probability buffer,
// plus the multi-model state of the blocked batch kernel (one querier and
// one log-probability row per model of the current batch). A Scratch is
// not safe for concurrent use; obtain one per goroutine from a
// ScratchPool.
type Scratch struct {
	q   Querier
	lps []float64

	qs   []*Querier
	rows [][]float64
}

// batchWordBlock is the word-block width of the multi-model batch kernel:
// every model of the batch scores one block of words before the sweep
// advances to the next block, so the block's symbol slices stay cache-hot
// across all models of the batch.
const batchWordBlock = 64

// logProbWordsBatch scores the word set against every frozen model of the
// batch in one blocked pass: words are visited in blocks of
// batchWordBlock, and each block is scored by every model while its
// symbol data is hot, instead of streaming the whole word set per model.
// Row i of the result is bit-identical to ms[i].LogProbWords(words, nil)
// — the kernel only reorders the (model, word) loop; the per-(model,
// word) arithmetic is the unchanged Querier walk. Queriers and rows are
// retained by the Scratch, so a warm Scratch scores without allocating;
// the rows are valid until its next use.
func (s *Scratch) logProbWordsBatch(ms []*Frozen, words [][]int) [][]float64 {
	for len(s.qs) < len(ms) {
		s.qs = append(s.qs, nil)
	}
	for len(s.rows) < len(ms) {
		s.rows = append(s.rows, nil)
	}
	for i, f := range ms {
		if s.qs[i] == nil {
			s.qs[i] = f.NewQuerier()
		} else {
			s.qs[i].Rebind(f)
		}
		if cap(s.rows[i]) < len(words) {
			s.rows[i] = make([]float64, len(words))
		}
		s.rows[i] = s.rows[i][:len(words)]
	}
	for lo := 0; lo < len(words); lo += batchWordBlock {
		hi := min(lo+batchWordBlock, len(words))
		for mi := range ms {
			q, row := s.qs[mi], s.rows[mi]
			for wi := lo; wi < hi; wi++ {
				row[wi] = q.LogProbSeq(words[wi])
			}
		}
	}
	return s.rows[:len(ms)]
}

// logProbWords scores every word through the scratch buffers: frozen
// scorers use the pooled Querier, other scorers evaluate directly; either
// way the log-probability buffer is retained across calls. The returned
// slice is valid until the next use of the Scratch.
func (s *Scratch) logProbWords(m WordScorer, words [][]int) []float64 {
	if f, ok := m.(*Frozen); ok {
		s.lps = s.querier(f).LogProbWords(words, s.lps)
		return s.lps
	}
	s.lps = m.LogProbWords(words, s.lps)
	return s.lps
}

// querier returns the scratch Querier rebound to f, log tables built.
func (s *Scratch) querier(f *Frozen) *Querier {
	s.q.Rebind(f)
	return &s.q
}

// oneShot returns the scratch Querier bound to f without log tables: for
// a single query, building them costs more than they save.
func (s *Scratch) oneShot(f *Frozen) *Querier {
	s.q.bind(f)
	return &s.q
}

// ScratchPool shares Scratch values across goroutines and across
// analyses: the corpus engine hands one pool to every image so queriers
// and distribution buffers stop being re-allocated per image. The zero
// value is ready to use; the pool is safe for concurrent use and its
// contents are garbage-collectible under memory pressure (sync.Pool
// semantics).
type ScratchPool struct {
	p sync.Pool
}

// NewScratchPool returns an empty pool.
func NewScratchPool() *ScratchPool { return &ScratchPool{} }

// Get returns a Scratch for exclusive use; pair with Put.
func (sp *ScratchPool) Get() *Scratch {
	if s, ok := sp.p.Get().(*Scratch); ok {
		return s
	}
	return &Scratch{}
}

// Put returns a Scratch to the pool.
func (sp *ScratchPool) Put(s *Scratch) { sp.p.Put(s) }

// sharedScratch is the process-wide default pool, used by any
// DistanceCalculator that was not handed an explicit pool — so even
// independent sequential analyses in one process reuse query scratch.
var sharedScratch = NewScratchPool()
