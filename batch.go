package mcf0

import (
	"fmt"
	"math/bits"

	"mcf0/internal/bitvec"
	"mcf0/internal/stats"
)

// checkElement panics when x does not fit the nBits-bit universe (the
// documented Add/AddBatch contract).
func checkElement(x uint64, nBits int) {
	if nBits < 64 && x >= 1<<uint(nBits) {
		panic(fmt.Sprintf("mcf0: element %d exceeds %d-bit universe", x, nBits))
	}
}

// minBatchRows is the conversion-buffer floor: small batches share one
// steady-state buffer instead of regrowing it.
const minBatchRows = 256

// elemBatch is the one batch conversion behind F0.AddBatch and
// ConcurrentF0.AddBatch: uint64 elements become slab-backed vectors, with
// in-batch repeats dropped. Every sketch is an idempotent function of the
// element set, so a repeat is an exact no-op that would otherwise cost a
// hash evaluation per sketch copy. The buffers grow to the largest batch
// seen and are reused, so steady-state conversion allocates nothing.
type elemBatch struct {
	vecs []bitvec.BitVec // slab rows, filled in first-occurrence order
	// seen is an open-addressing set of the current batch's elements,
	// sized to at least twice the row count; a slot is live iff its gen
	// is the current batch's, so starting a batch is one increment, not
	// a clear.
	seen []seenSlot
	gen  uint64
}

type seenSlot struct{ x, gen uint64 }

// convert validates the whole of xs against the nBits-bit universe first
// — an out-of-range element panics with nothing converted — then returns
// the distinct elements of xs as vectors in first-occurrence order. The
// result aliases b and is valid until the next convert.
func (b *elemBatch) convert(xs []uint64, nBits int) []bitvec.BitVec {
	for _, x := range xs {
		checkElement(x, nBits)
	}
	if cap(b.vecs) < len(xs) {
		rows := max(len(xs), minBatchRows)
		b.vecs = bitvec.NewSlab(nBits, rows)
		b.seen = make([]seenSlot, 1<<bits.Len(uint(2*rows-1)))
	}
	b.gen++
	mask := uint64(len(b.seen) - 1)
	out := b.vecs[:0]
	for _, x := range xs {
		i := stats.Mix64(x) & mask
		for b.seen[i].gen == b.gen && b.seen[i].x != x {
			i = (i + 1) & mask
		}
		if b.seen[i].gen == b.gen {
			continue // repeat of an earlier element of this batch
		}
		b.seen[i] = seenSlot{x, b.gen}
		out = out[:len(out)+1]
		out[len(out)-1].SetUint64(x)
	}
	return out
}
