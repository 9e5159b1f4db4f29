package distributed

import (
	"math"
	"testing"

	"mcf0/internal/exact"
	"mcf0/internal/formula"
	"mcf0/internal/hash"
	"mcf0/internal/oracle"
	"mcf0/internal/stats"
)

func testOpts(seed uint64) Options {
	return Options{Epsilon: 0.8, Delta: 0.2, Thresh: 24, Iterations: 9, RNG: stats.NewRNG(seed)}
}

func TestSplitPreservesSemantics(t *testing.T) {
	rng := stats.NewRNG(71)
	d := formula.RandomDNF(10, 13, 3, rng)
	for _, k := range []int{1, 2, 5, 13, 20} {
		parts := Split(d, k)
		if len(parts) != k {
			t.Fatalf("Split(%d) returned %d parts", k, len(parts))
		}
		total := 0
		for _, p := range parts {
			total += len(p.Terms)
		}
		if total != len(d.Terms) {
			t.Fatalf("k=%d: terms lost in split", k)
		}
		// Union of parts ≡ original.
		or := formula.NewDNF(d.N)
		for _, p := range parts {
			or = or.Or(p)
		}
		if exact.CountDNF(or) != exact.CountDNF(d) {
			t.Fatalf("k=%d: union of parts differs from original", k)
		}
	}
}

// protocolAccuracy checks a protocol's estimates against the exact count.
func protocolAccuracy(t *testing.T, name string, run func(parts []*formula.DNF, seed uint64) float64) {
	t.Helper()
	rng := stats.NewRNG(73)
	d := formula.RandomDNF(14, 8, 5, rng)
	truth := float64(exact.CountDNF(d))
	for _, k := range []int{1, 3, 6} {
		parts := Split(d, k)
		ok := 0
		const trials = 8
		for s := 0; s < trials; s++ {
			est := run(parts, uint64(2000+s))
			if stats.WithinFactor(est, truth, 0.8) {
				ok++
			}
		}
		if ok < trials*6/10 {
			t.Errorf("%s k=%d: within band only %d/%d (truth %g)", name, k, ok, trials, truth)
		}
	}
}

func TestBucketingProtocolAccuracy(t *testing.T) {
	protocolAccuracy(t, "bucketing", func(parts []*formula.DNF, seed uint64) float64 {
		return Bucketing(parts, testOpts(seed)).Estimate
	})
}

func TestMinimumProtocolAccuracy(t *testing.T) {
	protocolAccuracy(t, "minimum", func(parts []*formula.DNF, seed uint64) float64 {
		return Minimum(parts, testOpts(seed)).Estimate
	})
}

func TestEstimationProtocolAccuracy(t *testing.T) {
	rng := stats.NewRNG(79)
	d := formula.RandomDNF(12, 6, 4, rng)
	truth := float64(exact.CountDNF(d))
	r := int(math.Ceil(math.Log2(2 * truth)))
	parts := Split(d, 4)
	ok := 0
	const trials = 8
	for s := 0; s < trials; s++ {
		opts := testOpts(uint64(3000 + s))
		opts.Thresh = 48
		opts.Iterations = 5
		if stats.WithinFactor(Estimation(parts, r, opts).Estimate, truth, 0.8) {
			ok++
		}
	}
	if ok < trials*6/10 {
		t.Errorf("estimation protocol within band only %d/%d (truth %g)", ok, trials, truth)
	}
}

// TestMinimumMatchesCentralised: with identical hash draws, the distributed
// Minimum coordinator state must equal a single-site run over the whole
// formula — the defining property of the merge.
func TestMinimumMatchesCentralised(t *testing.T) {
	rng := stats.NewRNG(83)
	d := formula.RandomDNF(12, 9, 4, rng)
	for _, k := range []int{1, 2, 4, 9} {
		for seed := uint64(0); seed < 5; seed++ {
			distributed := Minimum(Split(d, k), testOpts(seed)).Estimate
			central := Minimum(Split(d, 1), testOpts(seed)).Estimate
			if distributed != central {
				t.Fatalf("k=%d seed=%d: distributed %g != central %g", k, seed, distributed, central)
			}
		}
	}
}

// TestEstimationMaxComposes: per-hash maxima over sites must equal the
// global maximum (trailing-zero maxima compose under union), so the
// estimate is independent of the partition.
func TestEstimationMaxComposes(t *testing.T) {
	rng := stats.NewRNG(89)
	d := formula.RandomDNF(10, 6, 3, rng)
	truth := float64(exact.CountDNF(d))
	r := int(math.Ceil(math.Log2(2*truth + 1)))
	for _, k := range []int{2, 5} {
		a := Estimation(Split(d, 1), r, testOpts(7)).Estimate
		b := Estimation(Split(d, k), r, testOpts(7)).Estimate
		if a != b {
			t.Fatalf("k=%d: estimation depends on partition: %g vs %g", k, a, b)
		}
	}
	// The sites as one tester answer FindMaxRange as one tester over the
	// whole formula, at every maxT; k = 8 leaves two sites without terms.
	n := d.N
	hs := []hash.Func{
		hash.NewPoly(n, 3).DrawN(1, rng.Uint64)[0],
		hash.NewXor(n, n).Draw(rng.Uint64),
		hash.NewToeplitz(n, n).Draw(rng.Uint64),
	}
	whole := oracle.NewExhaustive(n, d.Eval)
	for _, k := range []int{1, 2, 5, 8} {
		exhaustive, linear := make(siteTesters, k), make(siteTesters, k)
		for j, part := range Split(d, k) {
			exhaustive[j] = oracle.NewExhaustive(n, part.Eval)
			linear[j] = oracle.LinearTester{Source: oracle.NewDNFSource(part)}
		}
		for i, h := range hs {
			for maxT := 0; maxT <= n; maxT++ {
				want := whole.MaxTrailingZeros(h, maxT)
				if got := exhaustive.MaxTrailingZeros(h, maxT); got != want {
					t.Fatalf("k=%d hash %d maxT=%d: exhaustive sites %d, whole %d", k, i, maxT, got, want)
				}
				if i == 0 {
					continue // LinearTester takes linear hashes only
				}
				if got := linear.MaxTrailingZeros(h, maxT); got != want {
					t.Fatalf("k=%d hash %d maxT=%d: linear sites %d, whole %d", k, i, maxT, got, want)
				}
			}
		}
	}
}

// TestCommunicationScaling verifies the shape of the communication bounds:
// Minimum grows like k·n/ε² while Bucketing's site payload grows like
// k·(n + 1/ε²) — so as Thresh (∝1/ε²) grows with n fixed, Minimum's
// bits grow ~3n× faster per unit Thresh.
func TestCommunicationScaling(t *testing.T) {
	rng := stats.NewRNG(97)
	d := formula.RandomDNF(16, 12, 4, rng)
	base := testOpts(1)
	for _, k := range []int{2, 4, 8} {
		parts := Split(d, k)
		buck := Bucketing(parts, base)
		minr := Minimum(parts, base)
		if buck.Comm.Total() == 0 || minr.Comm.Total() == 0 {
			t.Fatal("communication not metered")
		}
		// Minimum sends 3n-bit values; Bucketing sends ~(gBits+log n)-bit
		// tuples. With n=16, Minimum's per-tuple cost must be higher.
		if minr.Comm.SitesToCoord <= buck.Comm.SitesToCoord {
			t.Errorf("k=%d: expected Minimum (%d bits) > Bucketing (%d bits) site→coord",
				k, minr.Comm.SitesToCoord, buck.Comm.SitesToCoord)
		}
	}
	// Communication must grow with k.
	c2 := Minimum(Split(d, 2), base).Comm.Total()
	c8 := Minimum(Split(d, 8), base).Comm.Total()
	if c8 <= c2 {
		t.Errorf("communication did not grow with sites: k=2 %d bits, k=8 %d bits", c2, c8)
	}
}

func TestRoughRWindow(t *testing.T) {
	rng := stats.NewRNG(101)
	d := formula.RandomDNF(14, 7, 4, rng)
	truth := float64(exact.CountDNF(d))
	parts := Split(d, 3)
	r, comm := RoughR(parts, 9, testOpts(11))
	if comm.Total() == 0 {
		t.Error("RoughR communication not metered")
	}
	// 2^r should be within a generous window around [2F0, 50F0].
	low := math.Log2(truth)
	if float64(r) < low-2 || float64(r) > low+9 {
		t.Errorf("RoughR r=%d far from log2(F0)=%.1f", r, low)
	}
}

func TestRoughRUnsat(t *testing.T) {
	d := formula.NewDNF(6)
	d.AddTerm(formula.Term{formula.Pos(0), formula.Negl(0)})
	r, _ := RoughR(Split(d, 2), 3, testOpts(1))
	if r != -1 {
		t.Errorf("unsat RoughR = %d, want -1", r)
	}
}

// TestZeroOptionsShape checks that every protocol run at zero options
// runs exactly the trial count params resolves.
func TestZeroOptionsShape(t *testing.T) {
	want := Options{}.Resolve(0).Iterations
	parts := Split(formula.RandomDNF(6, 4, 3, stats.NewRNG(3)), 2)
	for name, res := range map[string]Result{
		"bucketing":  Bucketing(parts, Options{}),
		"minimum":    Minimum(parts, Options{}),
		"estimation": Estimation(parts, 3, Options{}),
	} {
		if len(res.PerIteration) != want {
			t.Errorf("%s: %d trials, want %d", name, len(res.PerIteration), want)
		}
	}
}
