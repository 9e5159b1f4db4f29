package stats

import (
	"math"
	"testing"
)

func TestRNGDeterministic(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRNG(43)
	same := true
	a = NewRNG(42)
	for i := 0; i < 10; i++ {
		if a.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

// TestMix64Pinned pins the splitmix64 finalizer to reference outputs:
// RNG.Uint64, the server load and chaos test fixtures' op mixer and
// fault draws, and the bitvec fingerprint all derive from it, so every fixed-seed stream in the
// repository depends on these values.
func TestMix64Pinned(t *testing.T) {
	for _, c := range []struct{ in, want uint64 }{
		{0, 0},
		{1, 0x5692161d100b05e5},
		{0x9e3779b97f4a7c15, 0xe220a8397b1dcdaf},
		{0xdeadbeefcafebabe, 0x7ad6664f09ffe52c},
		{^uint64(0), 0xb4d055fcf2cbbd7b},
	} {
		if got := Mix64(c.in); got != c.want {
			t.Errorf("Mix64(%#x) = %#x, want %#x", c.in, got, c.want)
		}
	}
	if got := NewRNG(0).Uint64(); got != 0xe220a8397b1dcdaf {
		t.Errorf("NewRNG(0).Uint64() = %#x, want the splitmix64 reference 0xe220a8397b1dcdaf", got)
	}
}

func TestRNGUniformish(t *testing.T) {
	// Coarse sanity: bucket counts of Intn(8) within 20% of expectation.
	r := NewRNG(7)
	const n, buckets = 80000, 8
	counts := make([]int, buckets)
	for i := 0; i < n; i++ {
		counts[r.Intn(buckets)]++
	}
	for i, c := range counts {
		if math.Abs(float64(c)-n/buckets) > 0.2*n/buckets {
			t.Fatalf("bucket %d count %d far from %d", i, c, n/buckets)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(9)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestMedian(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{[]float64{1}, 1},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{5, 5, 5}, 5},
	}
	for _, c := range cases {
		orig := append([]float64(nil), c.in...)
		if got := Median(c.in); got != c.want {
			t.Errorf("Median(%v) = %v, want %v", c.in, got, c.want)
		}
		for i := range orig {
			if c.in[i] != orig[i] {
				t.Error("Median mutated its input")
			}
		}
	}
}

func TestMeanStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); got != 5 {
		t.Errorf("Mean = %v, want 5", got)
	}
}

func TestWithinFactor(t *testing.T) {
	cases := []struct {
		est, truth, eps float64
		want            bool
	}{
		{100, 100, 0.1, true},
		{111, 100, 0.1, false},
		{110, 100, 0.1, true},
		{90, 100, 0.1, false}, // 100/1.1 ≈ 90.909
		{91, 100, 0.1, true},
		{0, 0, 0.5, true},
		{1, 0, 0.5, false},
	}
	for _, c := range cases {
		if got := WithinFactor(c.est, c.truth, c.eps); got != c.want {
			t.Errorf("WithinFactor(%v,%v,%v) = %v, want %v", c.est, c.truth, c.eps, got, c.want)
		}
	}
}

func TestSuccessRate(t *testing.T) {
	if got := SuccessRate([]bool{true, false, true, true}); got != 0.75 {
		t.Errorf("SuccessRate = %v, want 0.75", got)
	}
	if got := SuccessRate(nil); got != 0 {
		t.Errorf("SuccessRate(nil) = %v", got)
	}
}

func TestMedianInt(t *testing.T) {
	if got := MedianInt([]int{1, 9, 3}); got != 3 {
		t.Errorf("MedianInt = %v, want 3", got)
	}
}

func TestPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"Median empty": func() { Median(nil) },
		"Mean empty":   func() { Mean(nil) },
		"Intn zero":    func() { NewRNG(1).Intn(0) },
		"Uint64n zero": func() { NewRNG(1).Uint64n(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

// SuccessRate returns the fraction of trials for which ok is true.
func SuccessRate(oks []bool) float64 {
	if len(oks) == 0 {
		return 0
	}
	c := 0
	for _, ok := range oks {
		if ok {
			c++
		}
	}
	return float64(c) / float64(len(oks))
}

// TestCouponEstimateNoHitsIsPositiveZero checks that zero hits give +0,
// not the −0 of ln 1 over a negative logarithm, so an empty estimate
// never prints or serialises as "-0".
func TestCouponEstimateNoHitsIsPositiveZero(t *testing.T) {
	for _, r := range []int{0, 1, 4, 20, 64} {
		if got := CouponEstimate(0, 16, r); got != 0 || math.Signbit(got) {
			t.Errorf("CouponEstimate(0, 16, %d) = %g (sign bit %v), want +0", r, got, math.Signbit(got))
		}
	}
	if got := CouponEstimate(16, 16, 4); !math.IsInf(got, 1) {
		t.Errorf("CouponEstimate(16, 16, 4) = %g, want +Inf", got)
	}
}

// TestCouponEstimateWideRange checks the estimate past r = 53, where
// 1 − 2^−r rounds to 1: every r in 54..64 gives a finite positive
// estimate that doubles from r−1 to r, continuing from r = 53, and the
// denominator there equals ln(1 − 2^−r) as math.Log1p computes it.
func TestCouponEstimateWideRange(t *testing.T) {
	for _, hits := range []int{1, 3, 15} {
		prev := CouponEstimate(hits, 16, 53)
		for r := 54; r <= 64; r++ {
			got := CouponEstimate(hits, 16, r)
			if math.IsInf(got, 0) || math.IsNaN(got) || got <= 0 {
				t.Fatalf("CouponEstimate(%d, 16, %d) = %g, want finite and positive", hits, r, got)
			}
			if ratio := got / prev; math.Abs(ratio-2) > 1e-12 {
				t.Fatalf("CouponEstimate(%d, 16, %d) / (…, %d) = %.17g, want 2", hits, r, r-1, ratio)
			}
			if d, want := couponDenom(r), math.Log1p(-math.Ldexp(1, -r)); d != want {
				t.Fatalf("couponDenom(%d) = %g, want %g", r, d, want)
			}
			prev = got
		}
	}
}
