package streaming

import (
	"fmt"
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
//   - */48sketches: one op is one batch of 1024 distinct Zipf-drawn
//     elements into the next of 48 saturated n = 32 default-parameter
//     sketches, round-robin, so the state (48 × 82 copies × 150 cells or
//     rows) is beyond L2 as on a daemon's ingest path; nearly every
//     element that passes a copy's prefix filter is already held.
//   - */fresh65536: one op is one 65,536-element batch of distinct
//     elements into a fresh default-parameter n = 32 sketch (built
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
	for _, kind := range []struct {
		name string
		mk   func(seed uint64) Sketch
	}{
		{"bucketing", func(seed uint64) Sketch {
			return NewBucketing(32, Options{RNG: stats.NewRNG(seed), Parallelism: 1})
		}},
		{"minimum", func(seed uint64) Sketch {
			return NewMinimum(32, Options{RNG: stats.NewRNG(seed), Parallelism: 1})
		}},
	} {
		b.Run(kind.name+"/48sketches", func(b *testing.B) {
			r := rand.New(rand.NewPCG(0x48, 1))
			sks := make([]Sketch, 48)
			for j := range sks {
				sks[j] = kind.mk(uint64(j) + 1)
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
		b.Run(kind.name+"/fresh65536", func(b *testing.B) {
			r := rand.New(rand.NewPCG(0x10000, 2))
			batch := make([]uint64, 1<<16)
			for k := range batch {
				batch[k] = uint64(r.Uint32())
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				sk := kind.mk(uint64(i))
				b.StartTimer()
				sk.ProcessBatch(batch)
				sinkEstimate = sk.Estimate()
			}
		})
	}
}

var sinkEstimate float64

// BenchmarkConcurrentTargetMiss times one estimate cache miss of a
// front with two replicas built, in the perfbench query shape: a 32-bit
// default-parameter Bucketing sketch filled with 2048 random elements as
// replica 0, the merge target, of a 2-replica front, with replica 1
// built by a steered write. Each op steers an add onto one replica and
// then misses:
//
//   - replay: 16 Zipf elements on replica 1, which the miss replays into
//     replica 0.
//   - overflow: 1024 Zipf elements on replica 1, past the replay cap
//     (thresh), so the miss merges replica 1 into replica 0 in full.
//   - target: 16 Zipf elements on replica 0, which land in the target
//     itself, so the miss has nothing to bring in.
func BenchmarkConcurrentTargetMiss(b *testing.B) {
	for _, v := range []struct {
		name    string
		add, on int
	}{{"replay", 16, 1}, {"overflow", 1024, 1}, {"target", 16, 0}} {
		b.Run(v.name, func(b *testing.B) {
			const n, fill, ring = 32, 2048, 64
			r := rand.New(rand.NewPCG(3, 4))
			seed := NewBucketing(n, Options{RNG: stats.NewRNG(43), Parallelism: 1})
			xs := make([]uint64, fill)
			for i := range xs {
				xs[i] = uint64(r.Uint32())
			}
			seed.ProcessBatch(xs)
			front := NewConcurrent(seed, 2)
			zipf := rand.NewZipf(r, 1.1, 1, 1<<20-1)
			adds := make([][]uint64, ring)
			for k := range adds {
				adds[k] = make([]uint64, v.add)
				for i := range adds[k] {
					adds[k][i] = stats.Mix64(zipf.Uint64()) >> (64 - n)
				}
			}
			writeOn(front, 1, adds[0])
			sinkEstimate = front.Estimate()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				writeOn(front, v.on, adds[i%ring])
				sinkEstimate = front.Estimate()
			}
		})
	}
}

// BenchmarkConcurrentSnapshot times one snapshot of a concurrent front,
// MergedClone then AppendSketch, in the shape f0d's snapshot route
// takes: a 32-bit default-parameter Bucketing sketch filled with 2048
// random elements as replica 0 of a front of 1, 2 or 4 replicas, every
// replica built by a steered write. Each op steers a 16-element Zipf
// write onto the last replica and then snapshots, so a multi-replica
// front has that write to bring into replica 0, its merged state.
func BenchmarkConcurrentSnapshot(b *testing.B) {
	for _, reps := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("replicas=%d", reps), func(b *testing.B) {
			const n, fill, ring = 32, 2048, 64
			r := rand.New(rand.NewPCG(5, 6))
			seed := NewBucketing(n, Options{RNG: stats.NewRNG(47), Parallelism: 1})
			xs := make([]uint64, fill)
			for i := range xs {
				xs[i] = uint64(r.Uint32())
			}
			seed.ProcessBatch(xs)
			front := NewConcurrent(seed, reps)
			zipf := rand.NewZipf(r, 1.1, 1, 1<<20-1)
			adds := make([][]uint64, ring)
			for k := range adds {
				adds[k] = make([]uint64, 16)
				for i := range adds[k] {
					adds[k][i] = stats.Mix64(zipf.Uint64()) >> (64 - n)
				}
			}
			for k := 1; k < reps; k++ {
				writeOn(front, k, adds[k])
			}
			var buf []byte
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				writeOn(front, reps-1, adds[i%ring])
				buf = AppendSketch(buf[:0], front.MergedClone())
			}
			sinkBytes = len(buf)
		})
	}
}

var sinkBytes int
