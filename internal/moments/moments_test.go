package moments

import (
	"math"
	"testing"

	"mcf0/internal/bitvec"
	"mcf0/internal/formula"
	"mcf0/internal/gf2"
	"mcf0/internal/stats"
)

func TestCubeSumMatchesBruteForce(t *testing.T) {
	rng := stats.NewRNG(401)
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(7)
		w := rng.Intn(n + 1)
		var tm formula.Term
		perm := rng.Intn(2)
		_ = perm
		seen := map[int]bool{}
		for len(tm) < w {
			v := rng.Intn(n)
			if seen[v] {
				continue
			}
			seen[v] = true
			tm = append(tm, formula.Lit{Var: v, Neg: rng.Bool()})
		}
		s := NewSignHash(n, rng)
		want := 0.0
		for v := uint64(0); v < 1<<uint(n); v++ {
			x := bitvec.FromUint64(v, n)
			if tm.Eval(x) {
				want += float64(s.Eval(x))
			}
		}
		if got := s.CubeSum(n, tm); got != want {
			t.Fatalf("trial %d (n=%d w=%d): CubeSum=%g brute=%g", trial, n, w, got, want)
		}
	}
}

func TestCubeSumContradiction(t *testing.T) {
	s := NewSignHash(4, stats.NewRNG(1))
	tm := formula.Term{formula.Pos(0), formula.Negl(0)}
	if got := s.CubeSum(4, tm); got != 0 {
		t.Fatalf("contradictory cube sum = %g", got)
	}
}

func TestAffineSumMatchesBruteForce(t *testing.T) {
	rng := stats.NewRNG(403)
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(6)
		rows := rng.Intn(n + 2)
		a := gf2.RandomMatrix(rows, n, rng.Uint64)
		b := bitvec.Random(rows, rng.Uint64)
		s := NewSignHash(n, rng)
		want := 0.0
		for v := uint64(0); v < 1<<uint(n); v++ {
			x := bitvec.FromUint64(v, n)
			if a.MulVec(x).Equal(b) {
				want += float64(s.Eval(x))
			}
		}
		if got := s.AffineSum(a, b); got != want {
			t.Fatalf("trial %d: AffineSum=%g brute=%g", trial, got, want)
		}
	}
}

// bruteF computes exact F1 and F2 of a cube-item stream.
func bruteF(n int, items []formula.Term) (f1, f2 float64) {
	freq := map[uint64]int{}
	for _, tm := range items {
		for v := uint64(0); v < 1<<uint(n); v++ {
			if tm.Eval(bitvec.FromUint64(v, n)) {
				freq[v]++
			}
		}
	}
	for _, f := range freq {
		f1 += float64(f)
		f2 += float64(f) * float64(f)
	}
	return f1, f2
}

func TestF1Exact(t *testing.T) {
	rng := stats.NewRNG(405)
	n := 8
	sk := NewF2(n, 3, 8, rng)
	var items []formula.Term
	for i := 0; i < 10; i++ {
		w := 1 + rng.Intn(4)
		var tm formula.Term
		seen := map[int]bool{}
		for len(tm) < w {
			v := rng.Intn(n)
			if seen[v] {
				continue
			}
			seen[v] = true
			tm = append(tm, formula.Lit{Var: v, Neg: rng.Bool()})
		}
		items = append(items, tm)
		sk.ProcessTerm(tm)
	}
	wantF1, _ := bruteF(n, items)
	if sk.F1() != wantF1 {
		t.Fatalf("F1 = %g, want %g", sk.F1(), wantF1)
	}
}

// TestF2Unbiased checks the estimator across independent sketches: the
// mean of many estimates must approach the true F2 (unbiasedness needs
// only pairwise independence), and the median-of-means single estimate
// must land within a loose band.
func TestF2Unbiased(t *testing.T) {
	rng := stats.NewRNG(407)
	n := 8
	var items []formula.Term
	for i := 0; i < 12; i++ {
		// Wider terms → lower-dimensional cubes → tamer Z² tails (the
		// pairwise-vs-4-wise variance gap the package doc discusses).
		w := 4 + rng.Intn(3)
		var tm formula.Term
		seen := map[int]bool{}
		for len(tm) < w {
			v := rng.Intn(n)
			if seen[v] {
				continue
			}
			seen[v] = true
			tm = append(tm, formula.Lit{Var: v, Neg: rng.Bool()})
		}
		items = append(items, tm)
	}
	_, wantF2 := bruteF(n, items)
	// Unbiasedness: a t=1 sketch's output IS the mean of b raw Z²
	// counters, so the grand mean over many sketches must approach F2.
	var raw []float64
	const sketches = 40
	for s := 0; s < sketches; s++ {
		sk := NewF2(n, 1, 32, stats.NewRNG(uint64(500+s)))
		for _, tm := range items {
			sk.ProcessTerm(tm)
		}
		raw = append(raw, sk.F2())
	}
	mean := stats.Mean(raw)
	if math.Abs(mean-wantF2) > 0.35*wantF2 {
		t.Fatalf("grand mean of %d sketch means %g far from F2=%g", sketches, mean, wantF2)
	}
	// Median-of-means single-shot estimates must land in a loose band.
	var ests []float64
	for s := 0; s < 10; s++ {
		sk := NewF2(n, 5, 64, stats.NewRNG(uint64(900+s)))
		for _, tm := range items {
			sk.ProcessTerm(tm)
		}
		ests = append(ests, sk.F2())
	}
	med := stats.Median(ests)
	if med < wantF2/3 || med > 3*wantF2 {
		t.Fatalf("median estimate %g outside factor-3 band of %g", med, wantF2)
	}
}

func TestF2AffineItems(t *testing.T) {
	rng := stats.NewRNG(409)
	n := 6
	type item struct {
		a *gf2.Matrix
		b bitvec.BitVec
	}
	var items []item
	freq := map[uint64]int{}
	for i := 0; i < 8; i++ {
		rows := 1 + rng.Intn(3)
		a := gf2.RandomMatrix(rows, n, rng.Uint64)
		b := bitvec.Random(rows, rng.Uint64)
		items = append(items, item{a, b})
		for v := uint64(0); v < 1<<uint(n); v++ {
			x := bitvec.FromUint64(v, n)
			if a.MulVec(x).Equal(b) {
				freq[v]++
			}
		}
	}
	var wantF1, wantF2 float64
	for _, f := range freq {
		wantF1 += float64(f)
		wantF2 += float64(f) * float64(f)
	}
	// Affine items of co-dimension r zero out all but a 2^{-(n-r)} fraction
	// of sign hashes, so Z² is heavily skewed — the very variance issue
	// the package doc flags. Wide means keep the median meaningful.
	sk := NewF2(n, 5, 512, stats.NewRNG(3))
	for _, it := range items {
		sk.ProcessAffine(it.a, it.b)
	}
	if sk.F1() != wantF1 {
		t.Fatalf("F1 = %g, want %g", sk.F1(), wantF1)
	}
	if est := sk.F2(); est < wantF2/4 || est > 4*wantF2 {
		t.Fatalf("F2 estimate %g outside factor-4 band of %g", est, wantF2)
	}
}

// Eval returns s(x) ∈ {+1, −1}.
func (s SignHash) Eval(x bitvec.BitVec) int {
	if s.a.Dot(x) != s.b {
		return 1
	}
	return -1
}

// AffineSum returns Σ_{x : Ax=b} s(x) in closed form: zero when a has a
// component along the null space, ±|Sol| otherwise (and 0 for an
// inconsistent system).
func (s SignHash) AffineSum(a *gf2.Matrix, b bitvec.BitVec) float64 {
	sys := gf2.NewSystem(a.Cols())
	for i := 0; i < a.Rows(); i++ {
		sys.Add(a.Row(i), b.Get(i))
	}
	x0, ok := sys.Solve()
	if !ok {
		return 0
	}
	size := 1.0
	for _, nb := range sys.NullBasis() {
		if s.a.Dot(nb) {
			return 0 // a not orthogonal to the solution space's directions
		}
		size *= 2
	}
	if s.a.Dot(x0) != s.b {
		return size
	}
	return -size
}

// ProcessAffine absorbs one affine item {x : Ax = b}.
func (sk *F2Sketch) ProcessAffine(a *gf2.Matrix, b bitvec.BitVec) {
	sys := gf2.NewSystem(a.Cols())
	for i := 0; i < a.Rows(); i++ {
		sys.Add(a.Row(i), b.Get(i))
	}
	if _, ok := sys.Solve(); !ok {
		return
	}
	size := 1.0
	for range sys.NullBasis() {
		size *= 2
	}
	sk.f1 += size
	for i := range sk.hs {
		for j, h := range sk.hs[i] {
			sk.z[i][j] += h.AffineSum(a, b)
		}
	}
}
