package streaming

import (
	"math/bits"

	"mcf0/internal/par"
)

// engine fans a sketch's independent per-copy work across a bounded worker
// pool via par.RunSharded. Every sketch in this package is t independent
// copies (own hash function, own mutable state, drawn serially at
// construction keyed by copy index), so the shard→copy assignment can
// never change results: fixed-seed estimates are bit-identical at every
// parallelism level.
//
// Dispatch costs more than a cheap sketch's per-copy work on a single
// element, so the engine only engages the pool when the element batch
// amortises it; below minElems the copies run serially on the caller's
// goroutine (the exact pre-engine code path).
type engine struct {
	workers int
	// minElems is the smallest element batch worth a pool dispatch.
	minElems int
}

// minBatchCheap gates the sketches whose per-copy per-element work is a
// single linear-hash evaluation, Bucketing and Minimum. Once a copy has
// filled, most elements stop at the level test or the max reject inside
// the fused hash-and-filter kernel (gf2poly.ClmulFilterBatch), so a
// copy-element costs ~0.5–3 ns (32-bit universe, AVX-512 or scalar
// PCLMULQDQ on a Xeon vCPU) against ~1–2 µs of dispatch, and only
// multi-element batches pay for fan-out.
const minBatchCheap = 8

// minBatchEstimation lets Estimation fan out on single elements: each copy
// does Thresh hash evaluations per element, already far above dispatch.
const minBatchEstimation = 1

func newEngine(parallelism, minElems int) engine {
	return engine{workers: par.Workers(parallelism), minElems: minElems}
}

// serial reports whether a batch of elems runs on the caller's goroutine.
// Callers use it to take an inline (closure-free, allocation-free) loop on
// the serial path and only build the fan-out closure when the pool will
// actually engage.
func (e engine) serial(elems int) bool { return e.workers <= 1 || elems < e.minElems }

// run fans fn(copy, shard) out across the pool; callers have already
// checked serial() and handled that case inline.
func (e engine) run(copies int, fn func(i, shard int)) {
	par.RunSharded(copies, e.workers, fn)
}

// wordScratch is the batch scratch of the word-kernel absorb (Bucketing
// and Minimum): the batch's packed elements, written once before fan-out
// and read-only inside it, and one buffer pair per pool shard for the
// hash words that pass a copy's bound and their element indices, grown
// and written only by its own shard. All grow to the largest batch seen
// and are reused, so steady-state batches allocate nothing.
type wordScratch struct {
	xw  []uint64
	ws  [][]uint64
	idx [][]int
}

// elems sizes the shard table for workers shards and returns the packed
// form of every element of xs.
func (s *wordScratch) elems(xs []uint64, n, workers int) []uint64 {
	if len(s.ws) < workers {
		s.ws, s.idx = make([][]uint64, workers), make([][]int, workers)
	}
	if cap(s.xw) < len(xs) {
		s.xw = make([]uint64, len(xs))
	}
	xw := s.xw[:len(xs)]
	for k, x := range xs {
		xw[k] = packWord(x, n)
	}
	return xw
}

// packWord returns the packed form of the n-bit element x: word 0 of its
// bitvec, where bit i is bit n−1−i of x (what bitvec.SetUint64 stores).
// It panics when x is not below 2^n.
func packWord(x uint64, n int) uint64 {
	if x>>uint(n) != 0 {
		panic("streaming: element exceeds the universe width")
	}
	return bits.Reverse64(x << (64 - uint(n)))
}

// shard returns the kept-word and index buffers of one shard, size
// entries long.
func (s *wordScratch) shard(shard, size int) ([]uint64, []int) {
	if cap(s.ws[shard]) < size {
		s.ws[shard], s.idx[shard] = make([]uint64, size), make([]int, size)
	}
	return s.ws[shard][:size], s.idx[shard][:size]
}
