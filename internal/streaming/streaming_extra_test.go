package streaming

import (
	"bytes"
	"math"
	"runtime"
	"testing"

	"mcf0/internal/bitvec"
	"mcf0/internal/stats"
)

func TestEstimationAllHitsGivesInf(t *testing.T) {
	// With r = 0 every hash trivially has ≥ 0 trailing zeros, so the
	// coupon estimator must saturate to +Inf rather than divide by zero.
	o := testOpts(1)
	o.Iterations = 3
	o.Thresh = 4
	e := NewEstimation(8, o)
	e.ProcessBatch([]uint64{5})
	if got := e.EstimateWithR(0); !math.IsInf(got, 1) {
		t.Fatalf("EstimateWithR(0) = %v, want +Inf", got)
	}
}

func TestEmptyStreamEstimates(t *testing.T) {
	o := testOpts(2)
	e := NewEstimation(8, o)
	for name, s := range map[string]Sketch{
		"bucketing":  NewBucketing(8, o),
		"minimum":    NewMinimum(8, o),
		"estimation": e,
	} {
		if got := s.Estimate(); got != 0 || math.Signbit(got) {
			t.Errorf("%s: empty stream estimate %g (sign bit %v), want +0", name, got, math.Signbit(got))
		}
	}
	if got := e.fm.maxTrailingZeros(); got != -1 {
		t.Errorf("FM: empty stream max trailing zeros %d, want -1", got)
	}
}

func TestBucketingSaturatedUniverse(t *testing.T) {
	// Feed the entire 2^8 universe; estimate must be within band of 256
	// even at full saturation.
	o := testOpts(3)
	b := NewBucketing(8, o)
	for v := uint64(0); v < 256; v++ {
		b.ProcessBatch([]uint64{v})
	}
	if !stats.WithinFactor(b.Estimate(), 256, 1.0) {
		t.Errorf("full-universe estimate %g", b.Estimate())
	}
}

func TestMinimumReplacementKeepsSorted(t *testing.T) {
	o := testOpts(4)
	o.Thresh = 4
	o.Iterations = 1
	m := NewMinimum(12, o)
	rng := stats.NewRNG(99)
	for i := 0; i < 500; i++ {
		m.ProcessBatch([]uint64{bitvec.Random(12, rng.Uint64).Uint64()})
	}
	set := firstSet(m)
	if set.Len() != 4 {
		t.Fatalf("copy holds %d values", set.Len())
	}
	for i := 1; i < set.Len(); i++ {
		if !set.Values()[i-1].Less(set.Values()[i]) {
			t.Fatal("minimum copy not strictly sorted")
		}
	}
}

func TestSuggestRClamped(t *testing.T) {
	// A dense stream over a tiny universe must not push r past n.
	o := testOpts(5)
	o.Iterations = 3
	o.Thresh = 4
	e := NewEstimation(6, o)
	for v := uint64(0); v < 64; v++ {
		e.ProcessBatch([]uint64{v})
	}
	if r := e.SuggestR(); r > 6 {
		t.Fatalf("SuggestR = %d exceeds universe bits", r)
	}
}

// TestBucketingTerminalLevel feeds the whole 8-bit universe to one-copy,
// Thresh 1 Bucketing sketches over 20 seeds. A copy in which more than
// Thresh elements hash to zero outgrows level n and must reach the
// terminal level n+1, empty and estimating 0, the same way in one batch,
// one element at a time and merged from two halves, keep it across a
// snapshot round trip, and admit nothing afterwards.
func TestBucketingTerminalLevel(t *testing.T) {
	const n = 8
	universe := make([]uint64, 1<<n)
	for v := range universe {
		universe[v] = uint64(v)
	}
	var terminal []uint64
	for seed := uint64(1); seed <= 20; seed++ {
		mk := func() *Bucketing {
			return NewBucketing(n, Options{Thresh: 1, Iterations: 1, RNG: stats.NewRNG(seed), Parallelism: 1})
		}
		batch, single, lo, hi := mk(), mk(), mk(), mk()
		batch.ProcessBatch(universe)
		for _, x := range universe {
			single.ProcessBatch([]uint64{x})
		}
		lo.ProcessBatch(universe[:len(universe)/2])
		hi.ProcessBatch(universe[len(universe)/2:])
		if err := lo.Merge(hi); err != nil {
			t.Fatal(err)
		}
		requireBucketingEqual(t, batch, single)
		requireBucketingEqual(t, batch, lo)
		raw, _ := batch.MarshalBinary()
		d, err := DecodeSketch(raw, 1)
		if err != nil {
			t.Fatalf("seed %d: decode: %v", seed, err)
		}
		requireBucketingEqual(t, batch, d.(*Bucketing))
		if again, _ := d.(*Bucketing).MarshalBinary(); !bytes.Equal(again, raw) {
			t.Fatalf("seed %d: snapshot bytes changed across a round trip", seed)
		}

		c := batch.copies[0]
		zeros := 0
		for _, x := range universe {
			if c.h.Eval(bitvec.FromUint64(x, n)).IsZero() {
				zeros++
			}
		}
		if (zeros > 1) != (c.level == n+1) {
			t.Fatalf("seed %d: %d elements hash to zero, level %d", seed, zeros, c.level)
		}
		if c.level == n+1 {
			terminal = append(terminal, seed)
			batch.ProcessBatch(universe)
			if c.size() != 0 || c.level != n+1 || batch.Estimate() != 0 {
				t.Fatalf("seed %d: terminal copy holds %d cells at level %d, estimate %g",
					seed, c.size(), c.level, batch.Estimate())
			}
		}
	}
	if len(terminal) == 0 {
		t.Fatal("no seed reached the terminal level")
	}
	t.Logf("seeds reaching level n+1: %v", terminal)
}

// TestCloneAllocBound bounds the bytes one Clone allocates (the least of
// three) for default 32-bit sketches: Bucketing per cell slot, t·(thresh+1)
// of them, and Minimum against the bytes of its t·thresh value rows. Both
// hold their values once, in word slabs.
func TestCloneAllocBound(t *testing.T) {
	cloneBytes := func(s Sketch) float64 {
		best := uint64(math.MaxUint64)
		var ms runtime.MemStats
		for range 3 {
			runtime.ReadMemStats(&ms)
			before := ms.TotalAlloc
			sinkClone = s.Clone()
			runtime.ReadMemStats(&ms)
			best = min(best, ms.TotalAlloc-before)
		}
		return float64(best)
	}
	const n = 32
	b := NewBucketing(n, Options{})
	slots := len(b.copies) * (b.thresh + 1)
	got := cloneBytes(b) / float64(slots)
	t.Logf("bucketing clone: %.1f B per slot", got)
	if got > 40 {
		t.Errorf("bucketing clone allocates %.1f B per slot, want ≤ 40", got)
	}
	m := NewMinimum(n, Options{})
	rowBytes := m.sk.Copies() * m.sk.Thresh() * 8 * ((3*n + 63) / 64)
	got = cloneBytes(m) / float64(rowBytes)
	t.Logf("minimum clone: %.2f× its value rows' bytes", got)
	if got > 1.25 {
		t.Errorf("minimum clone allocates %.2f× its value rows' bytes, want ≤ 1.25×", got)
	}
}

// TestNewEstimationAllocBound bounds what building a default 32-bit
// Estimation sketch allocates: at most 8·s + 16 bytes per grid cell (its
// s coefficient words and its one-byte trailing-zero counter, with the
// Flajolet–Martin tracker's t draws spread over the cells), in O(t)
// allocations, not one or more per cell.
func TestNewEstimationAllocBound(t *testing.T) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	bytes, mallocs := ms.TotalAlloc, ms.Mallocs
	e := NewEstimation(32, Options{})
	runtime.ReadMemStats(&ms)
	bytes, mallocs = ms.TotalAlloc-bytes, ms.Mallocs-mallocs
	copies := e.copies()
	perCell := float64(bytes) / float64(len(e.s))
	t.Logf("s = %d, %d copies of thresh %d: %.1f B per cell, %d allocations",
		e.wise, copies, e.thresh, perCell, mallocs)
	if perCell > float64(8*e.wise+16) {
		t.Errorf("%.1f B per cell, want ≤ 8·s + 16 = %d", perCell, 8*e.wise+16)
	}
	if mallocs > uint64(16*copies) {
		t.Errorf("%d allocations for %d copies, want ≤ 16 per copy", mallocs, copies)
	}
}

var sinkClone Sketch
