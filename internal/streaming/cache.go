package streaming

import "math/bits"

// minCacheRows is the cache's floor: small batches share one
// steady-state buffer instead of regrowing it.
const minCacheRows = 256

// ElementCache is a sketch's cache of the elements it absorbed: Drop
// removes from a batch the elements the sketch already holds before any
// sketch copy hashes them. Every sketch here is an idempotent function of
// the element set, so such an element is an exact no-op that would
// otherwise cost a hash evaluation per sketch copy. The buffers grow to
// the largest batch seen and are reused, so steady-state batches
// allocate nothing. The zero value is an empty cache.
//
// The cache is exact while it holds only elements of its sketch's set:
// its owner hands each batch Drop returns to the sketch before the next
// Drop, and a sketch's element set only grows. Its one owner is a
// replica of a Concurrent front, which reads and writes it under the
// replica's lock. Two sketches never share a cache.
type ElementCache struct {
	xs []uint64 // the elements not in seen, in batch order
	// seen is a direct-mapped table of x+1 for elements the sketch
	// holds, 0 marking an empty slot; it is never reset between batches,
	// only dropped when the buffers grow. A collision evicts, so an
	// element may reach the sketch again, never be lost. 2^64−1 wraps to
	// the empty marker and is never dropped.
	seen  []uint64
	shift uint // 64 − log₂ len(seen): the slot of x is the high bits of x·φ
}

// Drop returns the elements of xs not in the cache, in batch order, and
// caches them. The result aliases the cache and is valid until the next
// Drop; the caller must hand it to the sketch before calling Drop again.
func (c *ElementCache) Drop(xs []uint64) []uint64 {
	if cap(c.xs) < len(xs) {
		rows := max(len(xs), minCacheRows)
		c.xs = make([]uint64, rows)
		// 4·rows slots of 8 bytes: 32 bytes per row.
		log := bits.Len(uint(4*rows - 1))
		c.seen, c.shift = make([]uint64, 1<<log), uint(64-log)
	}
	out := c.xs[:0]
	for _, x := range xs {
		s := &c.seen[x*0x9e3779b97f4a7c15>>c.shift]
		if *s == x+1 && x+1 != 0 {
			continue // the sketch holds x
		}
		*s = x + 1
		out = append(out, x)
	}
	return out
}
