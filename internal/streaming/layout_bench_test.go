package streaming

import (
	"testing"

	"mcf0/internal/bitvec"
	"mcf0/internal/kmv"
	"mcf0/internal/stats"
)

// sinkPad keeps the scatter padding allocations live so the collector
// cannot reclaim them and compact survivors back into a slab-like layout.
var sinkPad [][]uint64

// scatterRows rebuilds the pre-slab layout: every row gets its own heap
// allocation, interleaved with padding allocations of the SAME length.
// Matching the length matters — Go's allocator segregates spans by size
// class, so differently-sized padding would land in other spans and the
// row allocations would still end up densely packed together.
func scatterRows(rows []bitvec.BitVec, width int) {
	for i := range rows {
		row := bitvec.New(width)
		row.CopyFrom(rows[i])
		rows[i] = row
		for p := 0; p < 3; p++ {
			sinkPad = append(sinkPad, make([]uint64, (width+63)/64))
		}
	}
}

func scatterBucketing(s *Bucketing) {
	for _, c := range s.copies {
		scatterRows(c.rows, s.n)
	}
}

func scatterMinimum(s *Minimum) {
	// Scatter before any ingestion: the set is empty, so no value aliases
	// a replaced row.
	n := s.sk.N()
	for i := 0; i < s.sk.Copies(); i++ {
		rows := bitvec.NewSlab(3*n, s.sk.Thresh())
		scatterRows(rows, 3*n)
		_, set := s.sk.Copy(i)
		*set = kmv.Make(rows)
	}
}

// BenchmarkAbsorbLayout times steady-state batch absorption with per-copy
// state in one contiguous slab (the PR-6 layout) against the same sketch
// with every row individually heap-allocated and padded 4× apart (the
// prior layout). One op = one full pass over a 4096-element stream in
// 256-element chunks, against a saturated sketch.
func BenchmarkAbsorbLayout(b *testing.B) {
	n := 64
	stream := dupStream(n, 4096, stats.NewRNG(0xabab))
	opts := func(seed uint64) Options {
		return Options{Epsilon: 0.8, Delta: 0.2, Thresh: 64, Iterations: 33,
			RNG: stats.NewRNG(seed), Parallelism: 1}
	}
	run := func(b *testing.B, e Sketch) {
		feedChunks(e, stream) // reach steady state before timing
		b.ReportAllocs()      // steady-state absorb must stay allocation-free
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for lo := 0; lo < len(stream); lo += 256 {
				e.ProcessBatch(stream[lo:min(lo+256, len(stream))])
			}
		}
		sinkEstimate = e.Estimate()
	}
	b.Run("bucketing/slab", func(b *testing.B) {
		run(b, NewBucketing(n, opts(21)))
	})
	b.Run("bucketing/scattered", func(b *testing.B) {
		s := NewBucketing(n, opts(21))
		scatterBucketing(s)
		run(b, s)
	})
	b.Run("minimum/slab", func(b *testing.B) {
		run(b, NewMinimum(n, opts(22)))
	})
	b.Run("minimum/scattered", func(b *testing.B) {
		s := NewMinimum(n, opts(22))
		scatterMinimum(s)
		run(b, s)
	})
}

var sinkEstimate float64
