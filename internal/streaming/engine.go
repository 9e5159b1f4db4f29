package streaming

import (
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
// single linear-hash evaluation (Bucketing, Minimum, Flajolet–Martin):
// once a copy has filled, most elements stop at the level test or the
// max comparison, so a copy-element costs ~10–30 ns (32-bit universe,
// BenchmarkF0Ingest on a Xeon vCPU) against ~1–2 µs of dispatch, and
// only multi-element batches pay for fan-out.
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
