package streaming

import (
	"testing"

	"mcf0/internal/stats"
)

// BenchmarkAbsorbLayout times steady-state batch absorption with per-copy
// state in one contiguous word slab per field. One op = one full pass
// over a 4096-element stream in 256-element chunks, against a saturated
// sketch.
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
	b.Run("minimum/slab", func(b *testing.B) {
		run(b, NewMinimum(n, opts(22)))
	})
}

var sinkEstimate float64
