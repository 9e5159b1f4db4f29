package streaming

import (
	"math/rand/v2"
	"testing"

	"mcf0/internal/stats"
)

// BenchmarkAbsorbLayout times batch absorption with per-copy state in one
// contiguous word slab per field.
//
//   - */slab: one op is one full pass over a 4096-element stream in
//     256-element chunks, against a saturated n = 64 sketch of small
//     parameters whose state stays in cache.
//   - minimum/48sketches: one op is one batch of 1024 distinct
//     Zipf-drawn elements into the next of 48 saturated n = 32
//     default-parameter Minimum sketches, round-robin, so the state
//     (48 × 82 copies × 150 rows) is beyond L2 as on a daemon's ingest
//     path; nearly every element that passes a copy's prefix filter is
//     already held.
//   - minimum/fresh65536: one op is one 65,536-element batch of distinct
//     elements into a fresh default-parameter n = 32 Minimum sketch (built
//     outside the timer): the fill phase, and the largest batch a daemon
//     admits.
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
	b.Run("minimum/48sketches", func(b *testing.B) {
		r := rand.New(rand.NewPCG(0x48, 1))
		sks := make([]*Minimum, 48)
		for j := range sks {
			sks[j] = NewMinimum(32, Options{RNG: stats.NewRNG(uint64(j) + 1), Parallelism: 1})
			fill := make([]uint64, 2048)
			for k := range fill {
				fill[k] = uint64(r.Uint32())
			}
			sks[j].ProcessBatch(fill)
		}
		keys := rand.NewZipf(r, 1.1, 1, 1<<20-1)
		batches := make([][]uint64, 64)
		for j := range batches {
			// Repeats dropped, as mcf0's AddBatch does before the sketch.
			seen := map[uint64]bool{}
			for len(seen) < 1024 {
				x := stats.Mix64(keys.Uint64()) & (1<<32 - 1)
				if !seen[x] {
					seen[x] = true
					batches[j] = append(batches[j], x)
				}
			}
		}
		for j := range batches { // every batch once into every sketch
			for _, sk := range sks {
				sk.ProcessBatch(batches[j])
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sks[i%len(sks)].ProcessBatch(batches[i%len(batches)])
		}
		sinkEstimate = sks[0].Estimate()
	})
	b.Run("minimum/fresh65536", func(b *testing.B) {
		r := rand.New(rand.NewPCG(0x10000, 2))
		batch := make([]uint64, 1<<16)
		for k := range batch {
			batch[k] = uint64(r.Uint32())
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			sk := NewMinimum(32, Options{RNG: stats.NewRNG(uint64(i)), Parallelism: 1})
			b.StartTimer()
			sk.ProcessBatch(batch)
			sinkEstimate = sk.Estimate()
		}
	})
}

var sinkEstimate float64
