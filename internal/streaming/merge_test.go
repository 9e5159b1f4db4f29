package streaming

import (
	"bytes"
	"runtime"
	"sync"
	"testing"
	"time"
	"unsafe"

	"mcf0/internal/stats"
)

// mergeOpts builds same-seed Options so two sketches share hash draws.
func mergeOpts(seed uint64, par int) Options {
	return Options{Epsilon: 0.8, Delta: 0.2, Thresh: 12, Iterations: 7,
		RNG: stats.NewRNG(seed), Parallelism: par}
}

// Merge differential: for every sketch, feeding the stream halves into
// two same-seed sketches and merging must leave state bit-identical to
// one sketch ingesting the concatenated stream — at every parallelism
// level, for both merge directions.
func TestMergeVsSingleDifferential(t *testing.T) {
	n := 32
	stream := dupStream(n, 1600, stats.NewRNG(0x3e63e))
	half := len(stream) / 2
	for _, par := range []int{1, 2, 4, runtime.GOMAXPROCS(0)} {
		whole := NewBucketing(n, mergeOpts(41, 1))
		left := NewBucketing(n, mergeOpts(41, par))
		right := NewBucketing(n, mergeOpts(41, par))
		feedChunks(whole, stream)
		feedChunks(left, stream[:half])
		feedChunks(right, stream[half:])
		if err := left.Merge(right); err != nil {
			t.Fatalf("par=%d: bucketing merge: %v", par, err)
		}
		requireBucketingEqual(t, whole, left)
		if whole.Estimate() != left.Estimate() {
			t.Fatalf("par=%d: bucketing estimates diverge", par)
		}

		mWhole := NewMinimum(n, mergeOpts(42, 1))
		mLeft := NewMinimum(n, mergeOpts(42, par))
		mRight := NewMinimum(n, mergeOpts(42, par))
		feedChunks(mWhole, stream)
		// Merge in the reverse direction too: absorb the left half INTO the
		// right half, exercising both operand orders across sketches.
		feedChunks(mLeft, stream[:half])
		feedChunks(mRight, stream[half:])
		if err := mRight.Merge(mLeft); err != nil {
			t.Fatalf("par=%d: minimum merge: %v", par, err)
		}
		requireMinimumEqual(t, mWhole, mRight)
		if mWhole.Estimate() != mRight.Estimate() {
			t.Fatalf("par=%d: minimum estimates diverge", par)
		}

		eo := mergeOpts(43, par)
		eo.Thresh = 8
		eo.Iterations = 3
		eWholeOpts := eo
		eWholeOpts.RNG = stats.NewRNG(43)
		eWholeOpts.Parallelism = 1
		eWhole := NewEstimation(n, eWholeOpts)
		eLeftOpts := eo
		eLeftOpts.RNG = stats.NewRNG(43)
		eLeft := NewEstimation(n, eLeftOpts)
		eRightOpts := eo
		eRightOpts.RNG = stats.NewRNG(43)
		eRight := NewEstimation(n, eRightOpts)
		feedChunks(eWhole, stream)
		feedChunks(eLeft, stream[:half])
		feedChunks(eRight, stream[half:])
		if err := eLeft.Merge(eRight); err != nil {
			t.Fatalf("par=%d: estimation merge: %v", par, err)
		}
		requireEstimationEqual(t, eWhole, eLeft)
		if eWhole.Estimate() != eLeft.Estimate() {
			t.Fatalf("par=%d: estimation estimates diverge", par)
		}
	}
}

// Merging three ways and in shuffled order must agree with two (the merge
// is the set union: associative, commutative, idempotent).
func TestMergeThreeWayAndSelf(t *testing.T) {
	n := 32
	stream := dupStream(n, 1200, stats.NewRNG(0x7733))
	third := len(stream) / 3
	whole := NewBucketing(n, mergeOpts(91, 1))
	feedChunks(whole, stream)
	parts := make([]*Bucketing, 3)
	bounds := [][2]int{{0, third}, {third, 2 * third}, {2 * third, len(stream)}}
	for i, bd := range bounds {
		parts[i] = NewBucketing(n, mergeOpts(91, 1))
		feedChunks(parts[i], stream[bd[0]:bd[1]])
	}
	// Shuffled merge order: 2 ← 0, then 2 ← 1.
	if err := parts[2].Merge(parts[0]); err != nil {
		t.Fatal(err)
	}
	if err := parts[2].Merge(parts[1]); err != nil {
		t.Fatal(err)
	}
	requireBucketingEqual(t, whole, parts[2])
	// Self-merge is a no-op (idempotence).
	if err := parts[2].Merge(parts[2].Clone().(*Bucketing)); err != nil {
		t.Fatal(err)
	}
	requireBucketingEqual(t, whole, parts[2])
}

// Clones must not share mutable state with their original: feeding the
// clone leaves the original bit-identical to an untouched twin.
func TestCloneIndependence(t *testing.T) {
	n := 32
	stream := dupStream(n, 900, stats.NewRNG(0xc10e))
	extra := dupStream(n, 900, stats.NewRNG(0xc10f))

	b := NewBucketing(n, mergeOpts(51, 1))
	twin := NewBucketing(n, mergeOpts(51, 1))
	feedChunks(b, stream)
	feedChunks(twin, stream)
	bc := b.Clone().(*Bucketing)
	requireBucketingEqual(t, b, bc)
	feedChunks(bc, extra)
	requireBucketingEqual(t, b, twin)

	m := NewMinimum(n, mergeOpts(52, 1))
	mTwin := NewMinimum(n, mergeOpts(52, 1))
	feedChunks(m, stream)
	feedChunks(mTwin, stream)
	mc := m.Clone().(*Minimum)
	requireMinimumEqual(t, m, mc)
	feedChunks(mc, extra)
	requireMinimumEqual(t, m, mTwin)

	eo := mergeOpts(53, 1)
	eo.Thresh = 8
	eo.Iterations = 3
	e := NewEstimation(n, eo)
	eo2 := mergeOpts(53, 1)
	eo2.Thresh = 8
	eo2.Iterations = 3
	eTwin := NewEstimation(n, eo2)
	feedChunks(e, stream)
	feedChunks(eTwin, stream)
	ec := e.Clone().(*Estimation)
	requireEstimationEqual(t, e, ec)
	feedChunks(ec, extra)
	requireEstimationEqual(t, e, eTwin)
}

// A sibling is the empty state of its sketch's draws: its snapshot is
// byte-identical to a fresh same-seed sketch's, whatever the original
// holds; it merges with the original; and feeding it leaves the
// original untouched.
func TestSiblingIsEmptyWithSharedDraws(t *testing.T) {
	n := 32
	stream := dupStream(n, 900, stats.NewRNG(0x5b1))
	for _, kind := range concurrentGoldenKinds {
		full := kind.mk()
		feedChunks(full, stream)
		before := AppendSketch(nil, full)
		sib := full.sibling()
		if got, want := AppendSketch(nil, sib), AppendSketch(nil, kind.mk()); !bytes.Equal(got, want) {
			t.Fatalf("%s: sibling snapshot differs from a fresh sketch's", kind.name)
		}
		feedChunks(sib, stream[:100])
		if !bytes.Equal(AppendSketch(nil, full), before) {
			t.Fatalf("%s: feeding the sibling changed the original", kind.name)
		}
		if err := sib.Merge(full); err != nil {
			t.Fatalf("%s: sibling refuses to merge the original: %v", kind.name, err)
		}
		if sib.Estimate() != full.Estimate() {
			t.Fatalf("%s: sibling ∪ original estimates %v, original %v", kind.name, sib.Estimate(), full.Estimate())
		}
	}
}

// Sketches with different draws, shapes, or types must refuse to merge.
func TestMergeIncompatible(t *testing.T) {
	n := 32
	a := NewBucketing(n, mergeOpts(61, 1))
	b := NewBucketing(n, mergeOpts(62, 1)) // different seed → different draws
	if err := a.Merge(b); err == nil {
		t.Fatal("merging different draws must fail")
	}
	small := mergeOpts(61, 1)
	small.Thresh = 6
	c := NewBucketing(n, small)
	if err := a.Merge(c); err == nil {
		t.Fatal("merging different thresholds must fail")
	}
	m := NewMinimum(n, mergeOpts(61, 1))
	if err := a.Merge(m); err == nil {
		t.Fatal("merging different sketch types must fail")
	}
}

// Concurrent determinism matrix: sequential ingestion through the
// concurrent front must produce estimates bit-identical to the plain
// serial sketch at every replica count.
func TestConcurrentDeterminism(t *testing.T) {
	n := 32
	stream := dupStream(n, 1500, stats.NewRNG(0xc0c0))
	serial := NewBucketing(n, mergeOpts(71, 1))
	feedChunks(serial, stream)
	want := serial.Estimate()
	for _, reps := range []int{1, 2, 4, runtime.GOMAXPROCS(0)} {
		front := NewConcurrent(NewBucketing(n, mergeOpts(71, 1)), reps)
		feedChunks(front, stream)
		if got := front.Estimate(); got != want {
			t.Fatalf("replicas=%d: estimate %v != serial %v", reps, got, want)
		}
		// The cache must survive repeated reads and invalidate on write.
		if got := front.Estimate(); got != want {
			t.Fatalf("replicas=%d: cached estimate diverged", reps)
		}
		v := front.Version()
		if got, gotV, cached := front.EstimateVersioned(); got != want || gotV != v || !cached {
			t.Fatalf("replicas=%d: repeat read (%v, v%d, cached=%v), want hit (%v, v%d)", reps, got, gotV, cached, want, v)
		}
		front.ProcessBatch([]uint64{1<<31 - 1})
		serial2 := NewBucketing(n, mergeOpts(71, 1))
		feedChunks(serial2, stream)
		serial2.ProcessBatch([]uint64{1<<31 - 1})
		if got, want2 := front.Estimate(), serial2.Estimate(); got != want2 {
			t.Fatalf("replicas=%d: post-write estimate %v != serial %v", reps, got, want2)
		}
		front.ProcessBatch([]uint64{7})
		serial2.ProcessBatch([]uint64{7})
		if got, gotV, cached := front.EstimateVersioned(); got != serial2.Estimate() || gotV != v+2 || cached {
			t.Fatalf("replicas=%d: post-write read (%v, v%d, cached=%v), want miss (%v, v%d)", reps, got, gotV, cached, serial2.Estimate(), v+2)
		}
		if _, gotV, cached := front.EstimateVersioned(); gotV != v+2 || !cached {
			t.Fatalf("replicas=%d: second post-write read (v%d, cached=%v), want hit at v%d", reps, gotV, cached, v+2)
		}
	}
}

// gatedMinimum is a Minimum whose ProcessBatch blocks until gate
// closes, announcing on entered that it holds its replica's lock.
type gatedMinimum struct {
	*Minimum
	entered chan struct{}
	gate    chan struct{}
}

func (g *gatedMinimum) ProcessBatch(xs []uint64) {
	g.entered <- struct{}{}
	<-g.gate
	g.Minimum.ProcessBatch(xs)
}

func (g *gatedMinimum) Clone() Sketch {
	return &gatedMinimum{g.Minimum.Clone().(*Minimum), g.entered, g.gate}
}

func (g *gatedMinimum) Merge(other Sketch) error {
	return g.Minimum.Merge(other.(*gatedMinimum).Minimum)
}

// A cache hit must not wait for a writer partway through a batch: with a
// writer parked inside ProcessBatch (holding one replica lock), Estimate
// still returns the cached answer, and once the writer completes the
// next estimate is a miss covering its write. The sketch is a Minimum
// below Thresh, which counts its distinct elements exactly.
func TestConcurrentCacheHitSkipsWriters(t *testing.T) {
	const n = 16
	seed := &gatedMinimum{NewMinimum(n, testOpts(13)), make(chan struct{}, 1), make(chan struct{})}
	front := NewConcurrent(seed, 2)
	for x := uint64(0); x < 10; x++ {
		// Warm-up writes take the front's write protocol but skip the
		// gate, absorbing into the embedded sketch.
		r := front.acquire()
		r.sk.(*gatedMinimum).Minimum.ProcessBatch([]uint64{x})
		front.release(r)
	}
	est, v, cached := front.EstimateVersioned()
	if est != 10 || v != 10 || cached {
		t.Fatalf("warm-up read (%v, v%d, cached=%v), want miss (10, v10)", est, v, cached)
	}

	wrote := make(chan struct{})
	go func() {
		defer close(wrote)
		front.ProcessBatch([]uint64{100})
	}()
	<-seed.entered

	type reading struct {
		est    float64
		v      uint64
		cached bool
	}
	got := make(chan reading, 1)
	go func() {
		e, v, c := front.EstimateVersioned()
		got <- reading{e, v, c}
	}()
	select {
	case r := <-got:
		if r != (reading{10, 10, true}) {
			t.Fatalf("read during in-flight write %+v, want cached (10, v10)", r)
		}
	case <-time.After(10 * time.Second):
		close(seed.gate)
		t.Fatal("cache hit blocked on an in-flight write")
	}

	close(seed.gate)
	<-wrote
	if est, v, cached := front.EstimateVersioned(); est != 11 || v != 11 || cached {
		t.Fatalf("read after the write (%v, v%d, cached=%v), want miss (11, v11)", est, v, cached)
	}
}

// The replicas and their logs are the memory the front holds. A fresh
// front holds the seed alone at every replica cap, and a single writer's
// front stays at one replica that a miss estimates directly, keeping no
// log. Once writes reach P replicas, SketchWords counts, from the first
// estimate miss on, each replica — replica 0 is the merge target, so it
// holds the MergedClone's words — and each log of replicas 1…P−1 at its
// full capacity, replayCap: P copies and P−1 logs. Replica 0 keeps no
// log, and later misses reuse the logs instead of adding more.
func TestConcurrentFootprintCountsKeptTarget(t *testing.T) {
	n := 32
	stream := dupStream(n, 600, stats.NewRNG(0xf00))
	seeds := map[string]func() Sketch{
		"bucketing": func() Sketch { return NewBucketing(n, mergeOpts(91, 1)) },
		"minimum":   func() Sketch { return NewMinimum(n, mergeOpts(92, 1)) },
	}
	for name, mk := range seeds {
		for _, reps := range []int{1, 2, 3} {
			seed := mk()
			feedChunks(seed, stream)
			one, logCap := seed.SketchWords(), seed.replayCap()
			front := NewConcurrent(seed, reps)
			if got := front.SketchWords(); got != one {
				t.Fatalf("%s replicas=%d: fresh front holds %d words, want %d", name, reps, got, one)
			}
			for miss := 0; miss < 2; miss++ {
				// A repeat changes no replica's state but still invalidates
				// the cache, so the estimate below is a miss.
				front.ProcessBatch(stream[miss*7 : miss*7+5])
				if _, _, cached := front.EstimateVersioned(); cached {
					t.Fatalf("%s replicas=%d: estimate after a write was a cache hit", name, reps)
				}
				if got := front.SketchWords(); got != one {
					t.Fatalf("%s replicas=%d single-writer miss %d: front holds %d words, want %d", name, reps, miss, got, one)
				}
			}
			logs := make([]*uint64, reps)
			for miss := 0; miss < 3; miss++ {
				for r := 0; r < reps; r++ {
					writeOn(front, r, stream[100+miss*reps+r:][:5])
				}
				if _, _, cached := front.EstimateVersioned(); cached {
					t.Fatalf("%s replicas=%d: estimate after a write was a cache hit", name, reps)
				}
				if got, want := front.replicas[0].sk.SketchWords(), front.MergedClone().SketchWords(); got != want {
					t.Fatalf("%s replicas=%d miss %d: replica 0 holds %d words, the merged clone %d", name, reps, miss, got, want)
				}
				want := (reps - 1) * logCap
				for i, r := range front.inUse() {
					want += r.sk.SketchWords()
					if wantCap := min(i, 1) * logCap; cap(r.log) != wantCap {
						t.Fatalf("%s replicas=%d miss %d: replica %d's log capacity %d, want %d", name, reps, miss, i, cap(r.log), wantCap)
					}
					if i == 0 {
						continue
					}
					if data := unsafe.SliceData(r.log); logs[i] == nil {
						logs[i] = data
					} else if data != logs[i] {
						t.Fatalf("%s replicas=%d miss %d: the miss replaced replica %d's log", name, reps, miss, i)
					}
				}
				if got := front.SketchWords(); got != want {
					t.Fatalf("%s replicas=%d steered miss %d: front holds %d words, want %d", name, reps, miss, got, want)
				}
			}
		}
	}
}

// Race hammer: concurrent producers with interleaved Estimate and
// MergedClone calls, for every sketch type, checked against serial
// ingestion of the same element set, at a replica cap below and above
// the producer count: the final estimate and the final MergedClone's
// snapshot bytes must be the serial sketch's. A front builds at most one
// replica per producer, and a front fed by one goroutine, with
// estimates, snapshots and footprint reads beside it, builds none past
// replica 0. Run under -race in CI.
func TestConcurrentHammerRace(t *testing.T) {
	n := 32
	producers := 8
	perProducer := 400
	streams := make([][]uint64, producers)
	var all []uint64
	for p := range streams {
		streams[p] = dupStream(n, perProducer, stats.NewRNG(uint64(0xa0+p)))
		all = append(all, streams[p]...)
	}

	seeds := map[string]func() Sketch{
		"bucketing":  func() Sketch { return NewBucketing(n, mergeOpts(81, 1)) },
		"minimum":    func() Sketch { return NewMinimum(n, mergeOpts(82, 1)) },
		"estimation": func() Sketch { return NewEstimation(n, mergeOpts(83, 1)) },
	}
	for name, mk := range seeds {
		t.Run(name, func(t *testing.T) {
			serial := mk()
			feed(serial, all)
			want, wantBytes := serial.Estimate(), AppendSketch(nil, serial)

			for _, reps := range []int{runtime.GOMAXPROCS(0), 2 * producers} {
				for _, writers := range []int{1, producers} {
					front := NewConcurrent(mk(), reps)
					hammer(front, streams, writers)
					if got := front.Estimate(); got != want {
						t.Fatalf("replicas=%d writers=%d: hammered estimate %v != serial %v", reps, writers, got, want)
					}
					if !bytes.Equal(AppendSketch(nil, front.MergedClone()), wantBytes) {
						t.Fatalf("replicas=%d writers=%d: hammered snapshot differs from the serial sketch's", reps, writers)
					}
					if built := len(front.inUse()); built > min(reps, writers) {
						t.Fatalf("replicas=%d writers=%d: front built %d replicas", reps, writers, built)
					}
				}
			}
		})
	}
}

// hammer feeds every stream into front, split over the given number of
// writer goroutines, while another goroutine reads estimates, snapshots
// and the footprint.
func hammer(front *Concurrent, streams [][]uint64, writers int) {
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for p := w; p < len(streams); p += writers {
				xs := streams[p]
				for i := 0; i < len(xs); i += 16 {
					hi := min(i+16, len(xs))
					front.ProcessBatch(xs[i:hi])
					if i%128 == 0 {
						front.ProcessBatch(xs[i : i+1])
					}
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			front.Estimate()
			front.MergedClone()
			front.SketchWords()
		}
	}()
	wg.Wait()
	<-done
}
