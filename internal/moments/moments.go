// Package moments explores the paper's §6 "Higher Moments" direction:
// frequency-moment estimation over structured set streams. Stream items
// are succinct sets (term cubes or affine spaces) over {0,1}^n; the
// frequency of x is the number of items whose set contains it, and
//
//	F1 = Σ_x freq(x) = Σ_i |S_i|         (exact, closed form per item)
//	F2 = Σ_x freq(x)²                     (estimated, AMS-style)
//
// The AMS sketch needs Σ_{x∈S} s(x) for ±1 hashes s. For linear sign
// hashes s(x) = (−1)^{⟨a,x⟩⊕b}, that sum has a closed form over both item
// kinds — a cube sums to ±|S| when a's free-variable restriction vanishes
// and to 0 otherwise; an affine space sums to ±|S| when a is orthogonal to
// its null space and to 0 otherwise — so items are absorbed in poly(n)
// time regardless of their cardinality, exactly the structured-stream
// economics of Section 5. The package ships the cube form the experiments
// run (ProcessTerm); its tests carry the affine form.
//
// Honesty note (why the paper calls this future work): linear sign hashes
// are pairwise independent, which makes the estimator unbiased, but the
// classical AMS variance bound needs 4-wise independence — and no 4-wise
// family is known whose cube sums stay closed-form. The sketch compensates
// with medians of larger means and is validated empirically against brute
// force in the tests; tightening this is the open problem.
package moments

import (
	"mcf0/internal/bitvec"
	"mcf0/internal/formula"
	"mcf0/internal/stats"
)

// SignHash is the linear ±1 hash s(x) = (−1)^{⟨a,x⟩⊕b}.
type SignHash struct {
	a bitvec.BitVec
	b bool
}

// NewSignHash draws a sign hash over n-bit inputs.
func NewSignHash(n int, rng *stats.RNG) SignHash {
	return SignHash{a: bitvec.Random(n, rng.Uint64), b: rng.Bool()}
}

// CubeSum returns Σ_{x ⊨ t} s(x) for a term cube over n variables, in
// closed form. A contradictory term sums to 0.
func (s SignHash) CubeSum(n int, t formula.Term) float64 {
	norm, ok := t.Normalize()
	if !ok {
		return 0
	}
	fixed, val := formula.TermFixed(n, norm)
	// If a touches any free variable the ± contributions cancel.
	freeBits := 0
	for i := 0; i < n; i++ {
		if !fixed[i] {
			if s.a.Get(i) {
				return 0
			}
			freeBits++
		}
	}
	sign := 1.0
	if s.a.Dot(val) != s.b {
		// ⟨a,x⟩ = ⟨a,val⟩ for every x in the cube (a avoids free vars).
	} else {
		sign = -1
	}
	size := 1.0
	for i := 0; i < freeBits; i++ {
		size *= 2
	}
	return sign * size
}

// F2Sketch is an AMS-style second-moment sketch over structured items:
// a t × b grid of linear counters, estimated as the median over rows of
// the mean of squared counters.
type F2Sketch struct {
	n  int
	hs [][]SignHash
	z  [][]float64
	f1 float64
}

// NewF2 builds a sketch with t median rows of b mean columns.
func NewF2(n, t, b int, rng *stats.RNG) *F2Sketch {
	if t < 1 || b < 1 {
		panic("moments: need at least one counter")
	}
	sk := &F2Sketch{n: n}
	for i := 0; i < t; i++ {
		var hrow []SignHash
		for j := 0; j < b; j++ {
			hrow = append(hrow, NewSignHash(n, rng))
		}
		sk.hs = append(sk.hs, hrow)
		sk.z = append(sk.z, make([]float64, b))
	}
	return sk
}

// ProcessTerm absorbs one cube item (the set of assignments satisfying t).
func (sk *F2Sketch) ProcessTerm(t formula.Term) {
	norm, ok := t.Normalize()
	if !ok {
		return
	}
	free := sk.n - len(norm)
	size := 1.0
	for i := 0; i < free; i++ {
		size *= 2
	}
	sk.f1 += size
	for i := range sk.hs {
		for j, h := range sk.hs[i] {
			sk.z[i][j] += h.CubeSum(sk.n, norm)
		}
	}
}

// F1 returns the exact first moment Σ_i |S_i|.
func (sk *F2Sketch) F1() float64 { return sk.f1 }

// F2 returns the second-moment estimate.
func (sk *F2Sketch) F2() float64 {
	means := make([]float64, len(sk.z))
	for i, row := range sk.z {
		var sum float64
		for _, zz := range row {
			sum += zz * zz
		}
		means[i] = sum / float64(len(row))
	}
	return stats.Median(means)
}
