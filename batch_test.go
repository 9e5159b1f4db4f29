package mcf0

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"mcf0/internal/stats"
	"mcf0/internal/streaming"
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

// dupBatches are the repeat shapes the element cache drops: Zipf
// batches with heavy repeats, a batch whose repeats straddle level
// raises (its 200 distinct elements overflow a Thresh-24 cell several
// times, so many repeats arrive after their first occurrence was
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

// Invariant 3 at the mcf0 boundary: dropping repeats, within a batch and
// across batches, in F0.AddBatch and ConcurrentF0.AddBatch leaves exactly
// the state of element-at-a-time Add — equal estimates, and
// byte-identical snapshots.
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

// Steady-state AddBatch and Add allocate nothing: the element cache is
// the replica's own scratch, and the sketches absorb into preallocated
// slabs.
func TestF0AddBatchAllocs(t *testing.T) {
	const bits = 32
	rng := stats.NewRNG(3)
	batches := [][]uint64{zipfBatch(rng, 1024, 5000, bits), zipfBatch(rng, 1024, 1<<30, bits)}
	for _, alg := range []Algorithm{AlgorithmBucketing, AlgorithmMinimum, AlgorithmEstimation} {
		cfg := Config{Thresh: 24, Iterations: 7, Seed: 5, Parallelism: 1}
		f, err := NewF0(bits, alg, cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Add's one-element batch must not escape to the heap.
		addOne := func(xs []uint64) { f.Add(xs[len(xs)/2]) }
		for name, add := range map[string]func([]uint64){"AddBatch": f.AddBatch, "Add": addOne} {
			for _, b := range batches {
				f.AddBatch(b) // warm the scratch and fill the sketch
			}
			k := 0
			allocs := testing.AllocsPerRun(50, func() {
				add(batches[k%len(batches)])
				k++
			})
			if allocs != 0 {
				t.Errorf("alg=%s F0.%s: %.2f allocations per call, want 0", alg, name, allocs)
			}
		}
	}
}

// handedSketch counts the elements handed to the sketch it wraps.
type handedSketch struct {
	streaming.Sketch
	n *atomic.Int64
}

func (h handedSketch) ProcessBatch(xs []uint64) {
	h.n.Add(int64(len(xs)))
	h.Sketch.ProcessBatch(xs)
}

// cacheReplicas are the replica caps the cache tests build: NewF0's,
// and one whose second replica a single writer never builds.
var cacheReplicas = []int{1, 2}

// handedF0 builds an F0 of the given replica cap whose replica 0 counts
// the elements handed to its sketch.
func handedF0(t *testing.T, bits int, alg Algorithm, cfg Config, reps int) (*F0, *atomic.Int64) {
	n := new(atomic.Int64)
	sk := handedSketch{mustSeed(t, bits, alg, cfg), n}
	return &F0{nBits: bits, front: streaming.NewConcurrent(sk, reps)}, n
}

// mustSeed builds the sketch NewF0 would put in replica 0.
func mustSeed(t *testing.T, bits int, alg Algorithm, cfg Config) streaming.Sketch {
	t.Helper()
	sk, err := streaming.New(f0Kinds[alg], bits, cfg.options())
	if err != nil {
		t.Fatal(err)
	}
	return sk
}

func mustSnapshot(t *testing.T, s *F0) []byte {
	t.Helper()
	b, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// absorbedSnapshot is the snapshot of a fresh sketch whose sketch
// absorbed xs directly, past any cache.
func absorbedSnapshot(t *testing.T, bits int, alg Algorithm, cfg Config, xs []uint64) []byte {
	t.Helper()
	sk := mustSeed(t, bits, alg, cfg)
	sk.ProcessBatch(xs)
	return mustSnapshot(t, &F0{nBits: bits, front: streaming.NewConcurrent(sk, 1)})
}

// addPanics reports whether s.AddBatch(xs) panics.
func addPanics(s *F0, xs []uint64) (panicked bool) {
	defer func() { panicked = recover() != nil }()
	s.AddBatch(xs)
	return false
}

var cacheAlgs = []Algorithm{AlgorithmBucketing, AlgorithmMinimum, AlgorithmEstimation}

// Each sketch has a cache of absorbed elements: re-adding an absorbed
// batch, at once or after GCs, hands the sketch nothing, leaves its
// snapshot bytes unchanged and still counts in Version. The
// cache is direct-mapped, so of a larger batch it hands again the few
// elements that lost their slot to another element of the batch (about
// k/4096 of k distinct elements at 1024 rows). A batch the validation
// rejects caches nothing, so its valid elements reach the sketch when
// they come again; and two sketches never share a cache, so the elements
// reach each of them.
func TestAddBatchCacheReAdd(t *testing.T) {
	const bits = 24
	zipf := zipfBatch(stats.NewRNG(5), 1024, 300, bits)
	distinct := len(slices.Compact(slices.Sorted(slices.Values(zipf))))
	for _, c := range []struct {
		name    string
		batch   []uint64
		maxLost int
	}{
		{"small", []uint64{7, 1 << 20, 12345, 99}, 0},
		{"zipf", zipf, distinct / 5},
	} {
		testCacheReAdd(t, bits, c.name, c.batch, c.maxLost)
	}
}

func testCacheReAdd(t *testing.T, bits int, batchName string, batch []uint64, maxLost int) {
	rejected := append(slices.Clone(batch[:len(batch)/2]), 1<<bits)
	for _, alg := range cacheAlgs {
		cfg := Config{Thresh: 24, Iterations: 7, Seed: 11, Parallelism: 1}
		want := absorbedSnapshot(t, bits, alg, cfg, batch)
		for _, reps := range cacheReplicas {
			name := fmt.Sprintf("%s/replicas=%d/%s", alg, reps, batchName)
			s, handed := handedF0(t, bits, alg, cfg, reps)
			other, _ := handedF0(t, bits, alg, cfg, reps)
			if !addPanics(s, rejected) {
				t.Fatalf("%s: a batch with an out-of-range element was accepted", name)
			}
			s.AddBatch(batch)
			if !bytes.Equal(mustSnapshot(t, s), want) {
				t.Fatalf("%s: after a rejected batch, the batch's snapshot differs from its elements'", name)
			}
			other.AddBatch(batch)
			if !bytes.Equal(mustSnapshot(t, other), want) {
				t.Fatalf("%s: a second sketch did not absorb a batch the first one holds", name)
			}
			if first := handed.Load(); first == 0 || first > int64(len(batch)) {
				t.Fatalf("%s: %d elements handed for a %d-element batch", name, first, len(batch))
			}
			reAdd := func(when string) {
				before, v0 := handed.Load(), s.Version()
				s.AddBatch(batch)
				if got := handed.Load() - before; got > int64(maxLost) {
					t.Errorf("%s: re-adding an absorbed batch %s handed the sketch %d elements, want ≤ %d", name, when, got, maxLost)
				}
				if !bytes.Equal(mustSnapshot(t, s), want) {
					t.Errorf("%s: re-adding an absorbed batch %s changed the snapshot", name, when)
				}
				if v := s.Version(); v != v0+1 {
					t.Errorf("%s: version %d after re-adding an absorbed batch %s at version %d, want %d", name, v, when, v0, v0+1)
				}
			}
			reAdd("at once")
			// The cache lives as long as its sketch: a GC does not empty
			// it, and a writer on any P finds it.
			func() {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
				runtime.GC()
				runtime.GC()
				reAdd("after two GCs at GOMAXPROCS 2")
			}()
		}
	}
}

// At n = 64 the element 2^64−1 wraps to the cache's empty marker: it is
// never dropped, alone, after other elements, or added again. Two
// sketches never share a cache, so elements the first holds reach the
// second.
func TestAddBatchCacheMaxElement(t *testing.T) {
	const bits = 64
	const top = ^uint64(0)
	for _, alg := range cacheAlgs {
		cfg := Config{Thresh: 24, Iterations: 7, Seed: 13, Parallelism: 1}
		for _, reps := range cacheReplicas {
			name := fmt.Sprintf("%s/replicas=%d", alg, reps)
			s, _ := handedF0(t, bits, alg, cfg, reps)
			s.AddBatch([]uint64{top})
			if !bytes.Equal(mustSnapshot(t, s), absorbedSnapshot(t, bits, alg, cfg, []uint64{top})) {
				t.Fatalf("%s: 2^64−1 was not absorbed", name)
			}
			other, _ := handedF0(t, bits, alg, cfg, reps)
			other.AddBatch([]uint64{1, 2})
			s.AddBatch([]uint64{1, top, 2, top})
			want := absorbedSnapshot(t, bits, alg, cfg, []uint64{1, 2, top})
			if !bytes.Equal(mustSnapshot(t, s), want) {
				t.Fatalf("%s: {2^64−1, 1, 2} not absorbed", name)
			}
			other.AddBatch([]uint64{top})
			if !bytes.Equal(mustSnapshot(t, other), want) {
				t.Fatalf("%s: a second sketch holds other elements than {1, 2, 2^64−1}", name)
			}
		}
	}
}

// Two writers add overlapping batches to one front. Each batch's cache
// belongs to the front, not the writer, and is read only once the
// elements it holds are absorbed, so every snapshot a writer takes after
// its AddBatch returns holds that batch's elements: absorbing the batch
// into the snapshot directly, past the cache, leaves its bytes unchanged.
// Run under -race, which also flags a cache shared between two batches.
func TestConcurrentF0CachedWriters(t *testing.T) {
	const bits, rounds, width = 20, 40, 64
	for _, alg := range cacheAlgs {
		c, err := NewConcurrentF0(bits, alg, Config{Thresh: 24, Iterations: 7, Seed: 17}, 2)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		errs := make(chan error, 2)
		for w := range 2 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for r := range rounds {
					// Batch r of writer w overlaps its own batch r−1 and
					// half of the other writer's batch r.
					xs := make([]uint64, width)
					for i := range xs {
						xs[i] = stats.Mix64(uint64(r*width/2+w*width/2+i)) >> (64 - bits)
					}
					c.AddBatch(xs)
					snap := c.front.MergedClone()
					before := streaming.AppendSketch(nil, snap)
					snap.ProcessBatch(xs)
					if after := streaming.AppendSketch(nil, snap); !bytes.Equal(before, after) {
						errs <- fmt.Errorf("alg=%s writer %d round %d: the snapshot after AddBatch lacks elements of the batch", alg, w, r)
						return
					}
				}
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Error(err)
		}
	}
}
