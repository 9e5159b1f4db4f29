package mcf0

import (
	"bytes"
	"math"
	"testing"

	"mcf0/internal/stats"
)

// zipfBatch draws n elements of a bits-bit universe with Zipf-like
// (log-uniform rank) popularity over keys ranks, so a batch repeats its
// hot elements many times over.
func zipfBatch(rng *stats.RNG, n, keys, bits int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		rank := uint64(math.Exp(rng.Float64() * math.Log(float64(keys))))
		out[i] = stats.Mix64(rank) >> (64 - bits)
	}
	return out
}

// dupBatches are the in-batch repeat shapes the mcf0 batch conversion
// drops: Zipf batches with heavy repeats, a batch whose repeats straddle
// level raises (its 200 distinct elements overflow a Thresh-24 cell
// several times, so many repeats arrive after their first occurrence was
// admitted, filtered or evicted at a lower level), an all-repeats batch,
// and a batch that only repeats elements of earlier batches.
func dupBatches(bits int) [][]uint64 {
	rng := stats.NewRNG(77)
	var batches [][]uint64
	for range 3 {
		batches = append(batches, zipfBatch(rng, 1024, 300, bits))
	}
	var straddle []uint64
	for i := 0; i < 200; i++ {
		straddle = append(straddle, stats.Mix64(uint64(1000+i))>>(64-bits))
		if i%3 == 0 {
			straddle = append(straddle, straddle[i/2])
		}
	}
	straddle = append(straddle, straddle[:len(straddle)/2]...)
	batches = append(batches, straddle)
	same := make([]uint64, 1024)
	for i := range same {
		same[i] = 12345
	}
	batches = append(batches, same, batches[0])
	return batches
}

// Invariant 3 at the mcf0 boundary: dropping in-batch repeats in
// F0.AddBatch and ConcurrentF0.AddBatch leaves exactly the state of
// element-at-a-time Add — equal estimates, and byte-identical snapshots.
func TestF0BatchVsSingleDuplicates(t *testing.T) {
	const bits = 24
	batches := dupBatches(bits)
	type sketch interface {
		AddBatch([]uint64)
		Estimate() float64
		MarshalBinary() ([]byte, error)
	}
	snapshot := func(s sketch) []byte {
		t.Helper()
		b, err := s.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	for _, alg := range []Algorithm{AlgorithmBucketing, AlgorithmMinimum, AlgorithmEstimation} {
		cfg := Config{Thresh: 24, Iterations: 7, Seed: 11, Parallelism: 1}
		newF0 := func(par int) *F0 {
			c := cfg
			c.Parallelism = par
			f, err := NewF0(bits, alg, c)
			if err != nil {
				t.Fatal(err)
			}
			return f
		}
		newFront := func(reps int) *ConcurrentF0 {
			c, err := NewConcurrentF0(bits, alg, cfg, reps)
			if err != nil {
				t.Fatal(err)
			}
			return c
		}
		single := newF0(1)
		for _, b := range batches {
			for _, x := range b {
				single.Add(x)
			}
		}
		for _, v := range []struct {
			name string
			s    sketch
			want []byte
		}{
			{"F0/par=1", newF0(1), snapshot(single)},
			{"F0/par=2", newF0(2), snapshot(single)},
			{"ConcurrentF0/replicas=1", newFront(1), snapshot(single)},
			{"ConcurrentF0/replicas=2", newFront(2), snapshot(single)},
		} {
			for _, b := range batches {
				v.s.AddBatch(b)
			}
			if !bytes.Equal(snapshot(v.s), v.want) {
				t.Fatalf("alg=%s %s: snapshot after batches with repeats differs from the repeat-free reference", alg, v.name)
			}
			if g, w := v.s.Estimate(), single.Estimate(); g != w {
				t.Fatalf("alg=%s %s: estimate %v != element-at-a-time %v", alg, v.name, g, w)
			}
		}
	}
}

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// Steady-state AddBatch allocates nothing per element: the conversion
// reuses the sketch's (F0) or the pool's (ConcurrentF0) scratch, and the
// sketches absorb into preallocated slabs.
func TestF0AddBatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items at random")
	}
	const bits = 32
	rng := stats.NewRNG(3)
	batches := [][]uint64{zipfBatch(rng, 1024, 5000, bits), zipfBatch(rng, 1024, 1<<30, bits)}
	for _, alg := range []Algorithm{AlgorithmBucketing, AlgorithmMinimum, AlgorithmEstimation} {
		cfg := Config{Thresh: 24, Iterations: 7, Seed: 5, Parallelism: 1}
		f, err := NewF0(bits, alg, cfg)
		if err != nil {
			t.Fatal(err)
		}
		c, err := NewConcurrentF0(bits, alg, cfg, 1)
		if err != nil {
			t.Fatal(err)
		}
		for name, add := range map[string]func([]uint64){"F0": f.AddBatch, "ConcurrentF0": c.AddBatch} {
			for _, b := range batches {
				add(b) // warm the scratch and fill the sketch
			}
			k := 0
			allocs := testing.AllocsPerRun(50, func() {
				add(batches[k%len(batches)])
				k++
			})
			// Under one allocation per batch on average: a GC may empty
			// the front's pool once, nothing may scale with the batch.
			if allocs >= 1 {
				t.Errorf("alg=%s %s.AddBatch: %.2f allocations per 1024-element batch, want 0",
					alg, name, allocs)
			}
		}
	}
}
