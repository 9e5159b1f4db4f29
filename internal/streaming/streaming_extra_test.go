package streaming

import (
	"math"
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
