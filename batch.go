package mcf0

import (
	"fmt"
	"math/bits"

	"mcf0/internal/stats"
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
// ConcurrentF0.AddBatch: elements are validated, and in-batch repeats
// dropped. Every sketch is an idempotent function of the element set, so
// a repeat is an exact no-op that would otherwise cost a hash evaluation
// per sketch copy. The buffers grow to the largest batch seen and are
// reused, so steady-state batches allocate nothing.
type elemBatch struct {
	xs []uint64 // distinct elements, in first-occurrence order
	// seen is an open-addressing set of the current batch's elements,
	// sized to at least twice the buffer length; a slot is live iff its
	// gen is the current batch's, so starting a batch is one increment,
	// not a clear.
	seen []seenSlot
	gen  uint64
}

type seenSlot struct{ x, gen uint64 }

// dedup validates the whole of xs against the nBits-bit universe first
// — an out-of-range element panics with nothing returned — then returns
// the distinct elements of xs in first-occurrence order. The result
// aliases b and is valid until the next dedup.
func (b *elemBatch) dedup(xs []uint64, nBits int) []uint64 {
	for _, x := range xs {
		checkElement(x, nBits)
	}
	if cap(b.xs) < len(xs) {
		rows := max(len(xs), minBatchRows)
		b.xs = make([]uint64, rows)
		b.seen = make([]seenSlot, 1<<bits.Len(uint(2*rows-1)))
	}
	b.gen++
	mask := uint64(len(b.seen) - 1)
	out := b.xs[:0]
	for _, x := range xs {
		i := stats.Mix64(x) & mask
		for b.seen[i].gen == b.gen && b.seen[i].x != x {
			i = (i + 1) & mask
		}
		if b.seen[i].gen == b.gen {
			continue // repeat of an earlier element of this batch
		}
		b.seen[i] = seenSlot{x, b.gen}
		out = append(out, x)
	}
	return out
}
