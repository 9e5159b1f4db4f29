package mcf0

import (
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"mcf0/internal/streaming"
)

// Clone returns a deep copy of the sketch sharing the (immutable) hash
// draws — exactly the precondition Merge requires. Feeding the clone
// never disturbs the original.
func (f *F0) Clone() *F0 {
	return &F0{nBits: f.nBits, sk: f.sk.Clone()}
}

// Fixed-seed ConcurrentF0 estimates must be bit-identical to a serial F0
// over the same element set, at every replica count and algorithm — the
// tentpole acceptance criterion.
func TestConcurrentF0Determinism(t *testing.T) {
	cfg := Config{Thresh: 24, Iterations: 7, Seed: 5, Parallelism: 1}
	xs := make([]uint64, 4000)
	for i := range xs {
		xs[i] = uint64(i*i) % 1800
	}
	for _, alg := range []Algorithm{AlgorithmBucketing, AlgorithmMinimum, AlgorithmEstimation} {
		serial, err := NewF0(24, alg, cfg)
		if err != nil {
			t.Fatal(err)
		}
		serial.AddBatch(xs)
		want := serial.Estimate()
		for _, reps := range []int{1, 2, 4, runtime.GOMAXPROCS(0)} {
			c, err := NewConcurrentF0(24, alg, cfg, reps)
			if err != nil {
				t.Fatal(err)
			}
			if c.Replicas() != reps {
				t.Fatalf("alg=%s: replicas %d != %d", alg, c.Replicas(), reps)
			}
			for lo := 0; lo < len(xs); lo += 300 {
				c.AddBatch(xs[lo:min(lo+300, len(xs))])
			}
			if got := c.Estimate(); got != want {
				t.Fatalf("alg=%s replicas=%d: estimate %v != serial %v", alg, reps, got, want)
			}
		}
	}
}

// Concurrent producers driving one ConcurrentF0 must land on the same
// estimate as serial ingestion (run under -race in CI).
func TestConcurrentF0ProducersRace(t *testing.T) {
	cfg := Config{Thresh: 24, Iterations: 5, Seed: 9, Parallelism: 1}
	serial, err := NewF0(20, AlgorithmMinimum, cfg)
	if err != nil {
		t.Fatal(err)
	}
	producers := 6
	perProducer := 500
	for p := 0; p < producers; p++ {
		for i := 0; i < perProducer; i++ {
			serial.Add(uint64(p*perProducer+i) % 900)
		}
	}
	want := serial.Estimate()

	c, err := NewConcurrentF0(20, AlgorithmMinimum, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			buf := make([]uint64, 0, 64)
			for i := 0; i < perProducer; i++ {
				buf = append(buf, uint64(p*perProducer+i)%900)
				if len(buf) == 64 {
					c.AddBatch(buf)
					buf = buf[:0]
				}
			}
			c.AddBatch(buf)
		}(p)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 25; i++ {
			c.Estimate()
		}
	}()
	wg.Wait()
	<-done
	if got := c.Estimate(); got != want {
		t.Fatalf("estimate %v != serial %v", got, want)
	}
	if c.SketchWords() <= 0 {
		t.Fatal("SketchWords must be positive after ingestion")
	}
}

// F0.Merge across split streams must match single-stream ingestion, and
// Clone must leave the original untouched.
func TestF0MergeAndClone(t *testing.T) {
	cfg := Config{Thresh: 24, Iterations: 7, Seed: 11, Parallelism: 1}
	xs := make([]uint64, 3000)
	for i := range xs {
		xs[i] = uint64(i*31) % 1400
	}
	for _, alg := range []Algorithm{AlgorithmBucketing, AlgorithmMinimum, AlgorithmEstimation} {
		whole, _ := NewF0(24, alg, cfg)
		left, _ := NewF0(24, alg, cfg)
		right, _ := NewF0(24, alg, cfg)
		whole.AddBatch(xs)
		left.AddBatch(xs[:1500])
		right.AddBatch(xs[1500:])
		before := left.Estimate()
		clone := left.Clone()
		if err := left.Merge(right); err != nil {
			t.Fatalf("alg=%s: merge: %v", alg, err)
		}
		if got, want := left.Estimate(), whole.Estimate(); got != want {
			t.Fatalf("alg=%s: merged estimate %v != whole %v", alg, got, want)
		}
		// The pre-merge clone is unaffected by the merge into its origin.
		if got := clone.Estimate(); got != before {
			t.Fatalf("alg=%s: clone estimate moved %v → %v", alg, before, got)
		}
	}

	// Different seeds → different draws → must refuse.
	a, _ := NewF0(24, AlgorithmBucketing, cfg)
	otherSeed := cfg
	otherSeed.Seed = 12
	b, _ := NewF0(24, AlgorithmBucketing, otherSeed)
	if err := a.Merge(b); err == nil {
		t.Fatal("merging different seeds must fail")
	}
}

// Set-stream wrappers: split/merge must match single-stream ingestion.
func TestSetStreamMerge(t *testing.T) {
	cfg := Config{Thresh: 24, Iterations: 5, Seed: 13, Parallelism: 1}

	whole, _ := NewDNFSetF0(12, cfg)
	left, _ := NewDNFSetF0(12, cfg)
	right, _ := NewDNFSetF0(12, cfg)
	sets := [][][]int{
		{{1, 2}, {-3}}, {{4, -5}}, {{6, 7, 8}}, {{-1, -2}}, {{9}, {10, -11}}, {{12, 1}},
	}
	for _, s := range sets {
		if err := whole.AddDNF(s); err != nil {
			t.Fatal(err)
		}
	}
	for _, s := range sets[:3] {
		if err := left.AddDNF(s); err != nil {
			t.Fatal(err)
		}
	}
	for _, s := range sets[3:] {
		if err := right.AddDNF(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := left.Merge(right); err != nil {
		t.Fatalf("dnf merge: %v", err)
	}
	if got, want := left.Estimate(), whole.Estimate(); got != want {
		t.Fatalf("dnf merged estimate %v != whole %v", got, want)
	}

	rWhole, _ := NewRangeF0([]int{10, 10}, cfg)
	rLeft, _ := NewRangeF0([]int{10, 10}, cfg)
	rRight, _ := NewRangeF0([]int{10, 10}, cfg)
	boxes := [][2][]uint64{
		{{0, 0}, {100, 50}}, {{200, 10}, {600, 400}}, {{50, 50}, {70, 800}}, {{500, 500}, {900, 900}},
	}
	for _, b := range boxes {
		if err := rWhole.AddRange(b[0], b[1]); err != nil {
			t.Fatal(err)
		}
	}
	for _, b := range boxes[:2] {
		if err := rLeft.AddRange(b[0], b[1]); err != nil {
			t.Fatal(err)
		}
	}
	for _, b := range boxes[2:] {
		if err := rRight.AddRange(b[0], b[1]); err != nil {
			t.Fatal(err)
		}
	}
	if err := rLeft.Merge(rRight); err != nil {
		t.Fatalf("range merge: %v", err)
	}
	if got, want := rLeft.Estimate(), rWhole.Estimate(); got != want {
		t.Fatalf("range merged estimate %v != whole %v", got, want)
	}
}

// failingSketch is a sketch whose absorb always panics, as a sketch bug
// would; its clones fail too.
type failingSketch struct{ streaming.Sketch }

func (failingSketch) ProcessBatch([]uint64) { panic("injected absorb failure") }

func (f failingSketch) Clone() streaming.Sketch { return failingSketch{f.Sketch.Clone()} }

// A ConcurrentF0 whose sketch panics contains the panic and fails: from
// then on every call returns at once, from any goroutine, with zero
// results and Err wrapping ErrSketchFailed, while another ConcurrentF0
// of the same configuration is unaffected.
func TestConcurrentF0FailedSketch(t *testing.T) {
	cfg := Config{Thresh: 24, Iterations: 7, Seed: 5, Parallelism: 1}
	seed, err := NewF0(16, AlgorithmMinimum, cfg)
	if err != nil {
		t.Fatal(err)
	}
	bad := &ConcurrentF0{nBits: 16, front: streaming.NewConcurrent(failingSketch{seed.sk}, 2)}
	good, err := NewConcurrentF0(16, AlgorithmMinimum, cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	xs := []uint64{1, 2, 3, 4, 5}
	bad.AddBatch(xs)
	if err := bad.Err(); !errors.Is(err, ErrSketchFailed) {
		t.Fatalf("Err() = %v, want ErrSketchFailed", err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				bad.AddBatch(xs)
				if est, v, cached := bad.EstimateVersioned(); est != 0 || v != 0 || cached {
					t.Errorf("failed sketch estimated (%v, v%d, cached=%v)", est, v, cached)
				}
				if bad.Snapshot() != nil {
					t.Error("failed sketch returned a snapshot")
				}
				if _, err := bad.MarshalBinary(); !errors.Is(err, ErrSketchFailed) {
					t.Errorf("MarshalBinary error %v, want ErrSketchFailed", err)
				}
			}()
		}
		wg.Wait()
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("calls on the failed sketch did not return")
	}
	good.AddBatch(xs)
	if est := good.Estimate(); est != 5 || good.Err() != nil {
		t.Fatalf("healthy sketch: estimate %v, Err %v; want 5, nil", est, good.Err())
	}
}
