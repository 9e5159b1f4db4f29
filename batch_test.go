package mcf0

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
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

// dupBatches are the repeat shapes the mcf0 batch conversion drops: Zipf
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

// handedSketch counts the elements handed to the sketch it wraps.
type handedSketch struct {
	streaming.Sketch
	n *atomic.Int64
}

func (h handedSketch) ProcessBatch(xs []uint64) {
	h.n.Add(int64(len(xs)))
	h.Sketch.ProcessBatch(xs)
}

// cachedSketch is what F0 and ConcurrentF0 share: an AddBatch that goes
// through the sketch's cache of absorbed elements, and snapshot bytes.
type cachedSketch interface {
	AddBatch([]uint64)
	MarshalBinary() ([]byte, error)
}

// cacheKind builds, with build, a sketch whose AddBatch goes through the
// cache and whose sketch (a front's replica 0) counts the elements handed
// to it.
type cacheKind struct {
	name  string
	front bool
	build func(t *testing.T, bits int, alg Algorithm, cfg Config) (cachedSketch, *atomic.Int64)
}

// cacheKinds are F0 and ConcurrentF0 at replica caps 1 and 2.
func cacheKinds() []cacheKind {
	kinds := []cacheKind{{"F0", false, func(t *testing.T, bits int, alg Algorithm, cfg Config) (cachedSketch, *atomic.Int64) {
		f := mustF0(t, bits, alg, cfg)
		n := new(atomic.Int64)
		f.sk = handedSketch{f.sk, n}
		return f, n
	}}}
	for _, reps := range []int{1, 2} {
		kinds = append(kinds, cacheKind{fmt.Sprintf("ConcurrentF0/replicas=%d", reps), true,
			func(t *testing.T, bits int, alg Algorithm, cfg Config) (cachedSketch, *atomic.Int64) {
				cfg.Parallelism = 1
				n := new(atomic.Int64)
				sk := handedSketch{mustF0(t, bits, alg, cfg).sk, n}
				return &ConcurrentF0{nBits: bits, front: streaming.NewConcurrent(sk, reps)}, n
			}})
	}
	return kinds
}

func mustF0(t *testing.T, bits int, alg Algorithm, cfg Config) *F0 {
	t.Helper()
	f, err := NewF0(bits, alg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func mustSnapshot(t *testing.T, s cachedSketch) []byte {
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
	f := mustF0(t, bits, alg, cfg)
	f.sk.ProcessBatch(xs)
	return mustSnapshot(t, f)
}

// addPanics reports whether s.AddBatch(xs) panics.
func addPanics(s cachedSketch, xs []uint64) (panicked bool) {
	defer func() { panicked = recover() != nil }()
	s.AddBatch(xs)
	return false
}

var cacheAlgs = []Algorithm{AlgorithmBucketing, AlgorithmMinimum, AlgorithmEstimation}

// The batch conversion is each sketch's cache of absorbed elements:
// re-adding an absorbed batch hands the sketch nothing, leaves its
// snapshot bytes unchanged and, on a front, still counts in Version. The
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
	// A front's cache lives in its sync.Pool, which a GC may empty and
	// which keeps an item put on one P from a Get on another, so this
	// runs on one P with the GC off.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	rejected := append(slices.Clone(batch[:len(batch)/2]), 1<<bits)
	for _, alg := range cacheAlgs {
		cfg := Config{Thresh: 24, Iterations: 7, Seed: 11, Parallelism: 1}
		want := absorbedSnapshot(t, bits, alg, cfg, batch)
		for _, k := range cacheKinds() {
			name := string(alg) + "/" + k.name + "/" + batchName
			s, handed := k.build(t, bits, alg, cfg)
			other, _ := k.build(t, bits, alg, cfg)
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
			first := handed.Load()
			if first == 0 || first > int64(len(batch)) {
				t.Fatalf("%s: %d elements handed for a %d-element batch", name, first, len(batch))
			}
			var v0 uint64
			if k.front {
				v0 = s.(*ConcurrentF0).Version()
			}
			s.AddBatch(batch)
			// The race detector makes sync.Pool drop items at random.
			if got := handed.Load() - first; got > int64(maxLost) && !(k.front && raceEnabled) {
				t.Errorf("%s: re-adding an absorbed batch handed the sketch %d elements, want ≤ %d", name, got, maxLost)
			}
			if !bytes.Equal(mustSnapshot(t, s), want) {
				t.Errorf("%s: re-adding an absorbed batch changed the snapshot", name)
			}
			if k.front {
				if v := s.(*ConcurrentF0).Version(); v != v0+1 {
					t.Errorf("%s: version %d after re-adding an absorbed batch at version %d, want %d", name, v, v0, v0+1)
				}
			}
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
		for _, k := range cacheKinds() {
			name := string(alg) + "/" + k.name
			s, _ := k.build(t, bits, alg, cfg)
			s.AddBatch([]uint64{top})
			if !bytes.Equal(mustSnapshot(t, s), absorbedSnapshot(t, bits, alg, cfg, []uint64{top})) {
				t.Fatalf("%s: 2^64−1 was not absorbed", name)
			}
			other, _ := k.build(t, bits, alg, cfg)
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
					snap := c.Snapshot()
					before, err := snap.MarshalBinary()
					if err != nil {
						errs <- err
						return
					}
					snap.sk.ProcessBatch(xs)
					if after, _ := snap.MarshalBinary(); !bytes.Equal(before, after) {
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
