package params

import (
	"math"
	"runtime"
	"testing"

	"mcf0/internal/stats"
)

// TestResolve pins the paper's ceilings: Thresh = ⌈96/ε²⌉ (exact where
// 96/ε² is an integer), t = max(1, ⌈35·log₂(1/δ)⌉), and the ε and δ
// fallbacks.
func TestResolve(t *testing.T) {
	for _, tc := range []struct {
		eps    float64
		thresh int
	}{
		{1, 96}, {0.8, 150}, {0.5, 384}, {0.25, 1536}, {0.1, 9600},
		{0, 150}, {-1, 150}, // ε ≤ 0 → 0.8
		{1e-12, math.MaxInt32}, {1e300, 1}, // 96/ε² past int, and rounding to 0
	} {
		if got := (Options{Epsilon: tc.eps}).Resolve(0).Thresh; got != tc.thresh {
			t.Errorf("ε=%g: Thresh %d, want %d", tc.eps, got, tc.thresh)
		}
	}
	for _, tc := range []struct {
		delta float64
		iters int
	}{
		{0.5, 35}, {0.2, 82}, {0.1, 117}, {0.01, 233},
		{0, 82}, {-0.5, 82}, {1, 82}, {2, 82}, // δ ∉ (0,1) → 0.2
		{0.99, 1}, // 35·log₂(1/0.99) ≈ 0.51 still runs one trial
	} {
		if got := (Options{Delta: tc.delta}).Resolve(0).Iterations; got != tc.iters {
			t.Errorf("δ=%g: Iterations %d, want %d", tc.delta, got, tc.iters)
		}
	}

	zero := Options{}.Resolve(7)
	if zero.Epsilon != 0.8 || zero.Delta != 0.2 || zero.Thresh != 150 || zero.Iterations != 82 ||
		zero.Parallelism != runtime.GOMAXPROCS(0) || zero.RNG.Uint64() != stats.NewRNG(7).Uint64() {
		t.Errorf("zero options resolve to %+v", zero)
	}
	rng := stats.NewRNG(1)
	set := Options{Epsilon: 0.3, Delta: 0.05, Thresh: 12, Iterations: 5, RNG: rng, Parallelism: 3}
	if got := set.Resolve(7); got != set {
		t.Errorf("explicit options resolve to %+v, want them unchanged", got)
	}
}
