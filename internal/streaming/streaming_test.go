package streaming

import (
	"testing"

	"mcf0/internal/stats"
)

func testOpts(seed uint64) Options {
	return Options{Epsilon: 0.8, Delta: 0.2, Thresh: 32, Iterations: 9, RNG: stats.NewRNG(seed)}
}

// makeStream draws length elements uniformly from a universe of `distinct`
// values embedded in {0,1}^n, guaranteeing every value appears at least
// once (so F0 is exactly `distinct`).
func makeStream(n, distinct, length int, rng *stats.RNG) []uint64 {
	if length < distinct {
		length = distinct
	}
	vals := make([]uint64, distinct)
	seen := map[uint64]bool{}
	for i := range vals {
		for {
			v := rng.Uint64n(uint64(1) << uint(n))
			if !seen[v] {
				seen[v] = true
				vals[i] = v
				break
			}
		}
	}
	stream := append(make([]uint64, 0, length), vals...)
	for len(stream) < length {
		stream = append(stream, vals[rng.Intn(distinct)])
	}
	return stream
}

// feed absorbs stream one element at a time: one-element ProcessBatch
// calls are the element-at-a-time reference.
func feed(e Sketch, stream []uint64) {
	for i := range stream {
		e.ProcessBatch(stream[i : i+1])
	}
}

// sketchAccuracy checks an estimator family's empirical (ε, δ) behaviour.
func sketchAccuracy(t *testing.T, name string, mk func(n int, opts Options) Sketch, eps float64) {
	t.Helper()
	rng := stats.NewRNG(42)
	for _, f0 := range []int{10, 200, 2000} {
		ok := 0
		const trials = 10
		for s := 0; s < trials; s++ {
			n := 24
			stream := makeStream(n, f0, f0*2, rng)
			e := mk(n, testOpts(uint64(100+s)))
			feed(e, stream)
			if stats.WithinFactor(e.Estimate(), float64(f0), eps) {
				ok++
			}
		}
		if ok < trials*7/10 {
			t.Errorf("%s F0=%d: only %d/%d within (1+%g)", name, f0, ok, trials, eps)
		}
	}
}

func TestBucketingAccuracy(t *testing.T) {
	sketchAccuracy(t, "Bucketing", func(n int, o Options) Sketch { return NewBucketing(n, o) }, 0.8)
}

func TestMinimumAccuracy(t *testing.T) {
	sketchAccuracy(t, "Minimum", func(n int, o Options) Sketch { return NewMinimum(n, o) }, 0.8)
}

func TestEstimationAccuracy(t *testing.T) {
	// The Estimation sketch processes t×Thresh hashes per element — keep
	// the workload smaller.
	rng := stats.NewRNG(43)
	for _, f0 := range []int{50, 500} {
		ok := 0
		const trials = 8
		for s := 0; s < trials; s++ {
			n := 20
			stream := makeStream(n, f0, f0, rng)
			opts := testOpts(uint64(200 + s))
			opts.Iterations = 7
			e := NewEstimation(n, opts)
			feed(e, stream)
			if stats.WithinFactor(e.Estimate(), float64(f0), 0.8) {
				ok++
			}
		}
		if ok < trials*6/10 {
			t.Errorf("Estimation F0=%d: only %d/%d within band", f0, ok, trials)
		}
	}
}

func TestEstimationWithGroundTruthR(t *testing.T) {
	// With r chosen from the true F0 (as Lemma 3 assumes), accuracy must
	// hold with high rate.
	rng := stats.NewRNG(44)
	f0 := 300
	ok := 0
	const trials = 8
	for s := 0; s < trials; s++ {
		stream := makeStream(20, f0, f0, rng)
		opts := testOpts(uint64(300 + s))
		opts.Iterations = 7
		e := NewEstimation(20, opts)
		feed(e, stream)
		r := 10 // 2^10 = 1024 ∈ [2·300, 50·300]
		if stats.WithinFactor(e.EstimateWithR(r), float64(f0), 0.8) {
			ok++
		}
	}
	if ok < trials*3/4 {
		t.Errorf("Estimation with true r: only %d/%d within band", ok, trials)
	}
}

// TestFlajoletMartinFactorFive checks Estimation's rough estimator: the
// tracker's 2^median, the value SuggestR reads, lands within a factor 8
// of F0 in most trials.
func TestFlajoletMartinFactorFive(t *testing.T) {
	rng := stats.NewRNG(45)
	f0 := 1000
	ok := 0
	const trials = 10
	for s := 0; s < trials; s++ {
		stream := makeStream(24, f0, f0, rng)
		e := NewEstimation(24, testOpts(uint64(400+s)))
		feed(e, stream)
		est := pow2(e.fm.maxTrailingZeros())
		if est >= float64(f0)/8 && est <= 8*float64(f0) {
			ok++
		}
	}
	if ok < trials*7/10 {
		t.Errorf("FM within factor 8 only %d/%d times", ok, trials)
	}
}

// TestOrderInsensitive verifies that all sketches produce identical
// estimates for permutations of the same multiset — the defining property
// of the relations P1–P3 of Section 3.1.
func TestOrderInsensitive(t *testing.T) {
	rng := stats.NewRNG(46)
	n := 16
	stream := makeStream(n, 150, 600, rng)
	reversed := make([]uint64, len(stream))
	for i, x := range stream {
		reversed[len(stream)-1-i] = x
	}
	shuffled := append([]uint64(nil), stream...)
	for i := len(shuffled) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	}
	mks := map[string]func(uint64) Sketch{
		"bucketing": func(seed uint64) Sketch { return NewBucketing(n, testOpts(seed)) },
		"minimum":   func(seed uint64) Sketch { return NewMinimum(n, testOpts(seed)) },
		"estimation": func(seed uint64) Sketch {
			o := testOpts(seed)
			o.Iterations = 3
			o.Thresh = 8
			return NewEstimation(n, o)
		},
	}
	for name, mk := range mks {
		var ests []float64
		for _, s := range [][]uint64{stream, reversed, shuffled} {
			e := mk(7)
			feed(e, s)
			ests = append(ests, e.Estimate())
		}
		if ests[0] != ests[1] || ests[0] != ests[2] {
			t.Errorf("%s: order-dependent estimates %v", name, ests)
		}
	}
}

// TestDuplicatesIgnored verifies F0 semantics: repeating one element a
// thousand times must not move any sketch.
func TestDuplicatesIgnored(t *testing.T) {
	n := 16
	base := makeStream(n, 50, 50, stats.NewRNG(47))
	flood := append([]uint64(nil), base...)
	for i := 0; i < 1000; i++ {
		flood = append(flood, base[0])
	}
	for name, mk := range map[string]func() Sketch{
		"bucketing": func() Sketch { return NewBucketing(n, testOpts(9)) },
		"minimum":   func() Sketch { return NewMinimum(n, testOpts(9)) },
	} {
		a, b := mk(), mk()
		feed(a, base)
		feed(b, flood)
		if a.Estimate() != b.Estimate() {
			t.Errorf("%s: duplicates changed the estimate", name)
		}
	}
}

// TestSketchSpaceSublinear verifies the headline space claim: sketch size
// stays bounded by O(Thresh·t) words while F0 grows far past it.
func TestSketchSpaceSublinear(t *testing.T) {
	n := 32
	rng := stats.NewRNG(48)
	opts := testOpts(11)
	small := makeStream(n, 100, 100, rng)
	big := makeStream(n, 20000, 20000, rng)

	bSmall, bBig := NewBucketing(n, opts), NewBucketing(n, opts)
	feed(bSmall, small)
	feed(bBig, big)
	bound := opts.Thresh * opts.Iterations * ((n + 63) / 64)
	if bBig.SketchWords() > bound {
		t.Errorf("bucketing sketch %d words exceeds bound %d", bBig.SketchWords(), bound)
	}

	mBig := NewMinimum(n, opts)
	feed(mBig, big)
	if mBig.SketchWords() > opts.Thresh*opts.Iterations*((3*n+63)/64) {
		t.Errorf("minimum sketch too large: %d words", mBig.SketchWords())
	}
}

func TestMinimumSmallStreamExact(t *testing.T) {
	// Fewer distinct elements than Thresh: Minimum reports exactly.
	n := 16
	stream := makeStream(n, 10, 40, stats.NewRNG(49))
	m := NewMinimum(n, testOpts(13))
	feed(m, stream)
	if m.Estimate() != 10 {
		t.Errorf("small-stream estimate %g, want exactly 10", m.Estimate())
	}
}

func TestBucketingLevelGrowth(t *testing.T) {
	// A large stream must push sampling levels up; a small one must not.
	n := 24
	small := NewBucketing(n, testOpts(15))
	feed(small, makeStream(n, 10, 10, stats.NewRNG(50)))
	if small.MaxLevel() != 0 {
		t.Errorf("tiny stream raised level to %d", small.MaxLevel())
	}
	big := NewBucketing(n, testOpts(15))
	feed(big, makeStream(n, 5000, 5000, stats.NewRNG(51)))
	if big.MaxLevel() == 0 {
		t.Error("large stream never raised the sampling level")
	}
}

// TestPaperDefaultOptions checks that every sketch built at zero options
// has exactly the shape params resolves (Thresh 150, 82 copies; pinned in
// params.TestResolve).
func TestPaperDefaultOptions(t *testing.T) {
	want := Options{}.Resolve(0)
	b := NewBucketing(16, Options{})
	m := NewMinimum(16, Options{})
	e := NewEstimation(16, Options{})
	for _, got := range []struct {
		name           string
		thresh, copies int
	}{
		{"bucketing", b.thresh, len(b.copies)},
		{"minimum", m.sk.Thresh(), m.sk.Copies()},
		{"estimation", e.thresh, e.copies()},
		{"estimation's rough estimator", want.Thresh, len(e.fm.hs)},
	} {
		if got.thresh != want.Thresh || got.copies != want.Iterations {
			t.Errorf("%s: %d copies of Thresh %d, want %d of %d",
				got.name, got.copies, got.thresh, want.Iterations, want.Thresh)
		}
	}
}

// MaxLevel returns the largest sampling level across copies (diagnostics).
func (b *Bucketing) MaxLevel() int {
	m := 0
	for _, c := range b.copies {
		if c.level > m {
			m = c.level
		}
	}
	return m
}
