// Package par provides the two worker-pool primitives shared by every
// parallel loop in the repository:
//
//   - Run, a dynamic (work-stealing) pool for heterogeneous tasks such as
//     the counting and distributed median trials, where per-task cost
//     varies by orders of magnitude (SAT calls);
//   - RunSharded, a static block-partitioned pool for homogeneous per-copy
//     sketch work, where a fixed shard→index assignment lets callers keep
//     per-shard scratch and amortise dispatch over whole index blocks.
//
// Keeping both in one place means pool semantics — assignment order, panic
// propagation, future cancellation — are fixed once.
//
// # Concurrency contract
//
// Run and RunSharded block until every index has been processed and are
// themselves safe to call from multiple goroutines (each call spins up its
// own transient workers; there is no shared pool state). Within one call,
// fn runs concurrently for different indices, so fn must only touch state
// owned by its index (Run) or its shard (RunSharded).
//
// Scratch ownership follows the shard, not the goroutine: RunSharded
// guarantees that shard s is driven by exactly one worker for the duration
// of the call, so scratch a caller keeps per shard (one slot for each of
// Workers(workers) shards) is touched by one goroutine at a time and can
// be reused across calls without synchronisation. The shard→index
// assignment is a pure function of (count, workers) — never of
// scheduling — which is one half of the repository's determinism
// invariant; the other half is that callers pre-draw any randomness
// serially, keyed by index. Under that discipline results are
// bit-identical for every workers value, including 1 (callers may
// special-case workers == 1 to skip dispatch entirely; the assignment
// makes the two paths indistinguishable).
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a Parallelism option to an effective worker bound:
// positive values pass through, anything else selects GOMAXPROCS.
func Workers(requested int) int {
	if requested > 0 {
		return requested
	}
	return runtime.GOMAXPROCS(0)
}

// Run executes fn(i) for i in [0, count) on up to workers goroutines.
// Indices are handed out dynamically (first idle worker takes the next
// index), which balances heterogeneous task costs. fn must write results
// only to its own index's slot; when workers > 1 it is invoked concurrently
// and must not touch shared mutable state.
func Run(count, workers int, fn func(i int)) {
	if workers > count {
		workers = count
	}
	if workers <= 1 {
		for i := 0; i < count; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= count {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// ShardCount returns the number of shards RunSharded uses for the given
// index count and worker bound: min(workers, count), at least 1. Callers
// sizing per-shard scratch should use the worker bound alone (Workers(p)),
// which is an upper bound for every count.
func ShardCount(count, workers int) int {
	if workers > count {
		workers = count
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// RunSharded executes fn(i, shard) for i in [0, count) on up to workers
// goroutines, statically partitioning the index space into
// ShardCount(count, workers) contiguous blocks: shard s owns indices
// [s·count/shards, (s+1)·count/shards) and visits them in increasing order
// on a single goroutine. The assignment is a pure function of
// (count, workers) — never of scheduling — so runs are reproducible and fn
// may reuse scratch buffers indexed by shard. Scratch carries garbage
// between indices of the same shard; fn must fully overwrite it per index.
//
// Determinism of results across worker counts is the caller's contract:
// index i's work must depend only on i's own state (per-copy RNG streams
// keyed by copy index, never by shard or worker), in which case results
// are bit-identical at every parallelism level.
func RunSharded(count, workers int, fn func(i, shard int)) {
	shards := ShardCount(count, workers)
	if shards <= 1 {
		for i := 0; i < count; i++ {
			fn(i, 0)
		}
		return
	}
	var wg sync.WaitGroup
	for s := 0; s < shards; s++ {
		lo := s * count / shards
		hi := (s + 1) * count / shards
		if lo == hi {
			continue
		}
		wg.Add(1)
		go func(s, lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				fn(i, s)
			}
		}(s, lo, hi)
	}
	wg.Wait()
}
