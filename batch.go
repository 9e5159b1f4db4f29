package mcf0

import (
	"fmt"
	"math/bits"
)

// checkElement panics when x does not fit the nBits-bit universe (the
// documented Add/AddBatch contract).
func checkElement(x uint64, nBits int) {
	if nBits < 64 && x >= 1<<uint(nBits) {
		panic(fmt.Sprintf("mcf0: element %d exceeds %d-bit universe", x, nBits))
	}
}

// minBatchRows is the batch-buffer floor: small batches share one
// steady-state buffer instead of regrowing it.
const minBatchRows = 256

// elemBatch is the one batch preparation behind F0.AddBatch and
// ConcurrentF0.AddBatch, and its sketch's cache of absorbed elements:
// elements are validated, and those the sketch already holds are dropped
// before they are hashed. Every sketch is an idempotent function of the
// element set, so such an element is an exact no-op that would otherwise
// cost a hash evaluation per sketch copy. The buffers grow to the largest
// batch seen and are reused, so steady-state batches allocate nothing.
//
// The cache is exact because an element enters seen only on its way into
// ProcessBatch, and nothing reads seen again before that call returns:
// each F0 and ConcurrentF0 owns its elemBatches (a front pools them, and
// takes one back only after ProcessBatch returns), validation runs before
// any write to seen, and a sketch's element set only grows (a front's
// estimates, snapshots and drains read the union of its replicas). Two
// sketches never share an elemBatch.
type elemBatch struct {
	xs []uint64 // the elements not in seen, in batch order
	// seen is a direct-mapped table of x+1 for elements the sketch
	// holds, 0 marking an empty slot; it is never reset between batches,
	// only dropped when the buffers grow. A collision evicts, so an
	// element may reach the sketch again, never be lost. 2^64−1 wraps to
	// the empty marker and is never dropped.
	seen  []uint64
	shift uint // 64 − log₂ len(seen): the slot of x is the high bits of x·φ
}

// dedup validates the whole of xs against the nBits-bit universe first
// — an out-of-range element panics with nothing returned or cached —
// then returns the elements of xs not in the cache, in batch order, and
// caches them. The result aliases b and is valid until the next dedup;
// the caller must hand it to the sketch before calling dedup again.
func (b *elemBatch) dedup(xs []uint64, nBits int) []uint64 {
	for _, x := range xs {
		checkElement(x, nBits)
	}
	if cap(b.xs) < len(xs) {
		rows := max(len(xs), minBatchRows)
		b.xs = make([]uint64, rows)
		// 4·rows slots of 8 bytes: 32 bytes per row.
		log := bits.Len(uint(4*rows - 1))
		b.seen, b.shift = make([]uint64, 1<<log), uint(64-log)
	}
	out := b.xs[:0]
	for _, x := range xs {
		s := &b.seen[x*0x9e3779b97f4a7c15>>b.shift]
		if *s == x+1 && x+1 != 0 {
			continue // the sketch holds x
		}
		*s = x + 1
		out = append(out, x)
	}
	return out
}
