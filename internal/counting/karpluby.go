package counting

import (
	"math"

	"mcf0/internal/bitvec"
	"mcf0/internal/formula"
	"mcf0/internal/par"
	"mcf0/internal/stats"
)

// KarpLuby is the classical Monte-Carlo FPRAS for #DNF (Karp–Luby 1983,
// with the canonical-witness estimator of Karp–Luby–Madras). It is the
// baseline the paper's hashing-based DNF counters are compared against
// (ablation A3 / the empirical-study direction of Section 3.5).
//
// The estimator samples a term i with probability |Tᵢ| / Σⱼ|Tⱼ|, then a
// uniform solution x of Tᵢ, and scores 1 iff i is the first term
// satisfied by x; the union size is M·E[score]. A median of means gives
// the (ε, δ) guarantee with O(k/ε² · log(1/δ)) samples.
func KarpLuby(d *formula.DNF, opts Options) Result {
	p := opts.Resolve(defaultSeed)
	t := p.Iterations
	res := Result{Iterations: t}
	k := len(d.Terms)
	if k == 0 {
		res.Estimate = 0
		res.PerIteration = make([]float64, t)
		return res
	}
	// Term weights |Tᵢ| = 2^(n − widthᵢ); float64 is exact here for
	// n ≤ 53 and adequate beyond.
	weights := make([]float64, k)
	norms := make([]formula.Term, k)
	totalW := 0.0
	for i, tm := range d.Terms {
		norm, ok := tm.Normalize()
		if !ok {
			weights[i] = 0
			continue
		}
		norms[i] = norm
		weights[i] = math.Pow(2, float64(d.N-len(norm)))
		totalW += weights[i]
	}
	if totalW == 0 {
		res.Estimate = 0
		res.PerIteration = make([]float64, t)
		return res
	}
	samplesPerGroup := int(math.Ceil(8 * float64(k) / (p.Epsilon * p.Epsilon)))
	// Each median group gets its own RNG stream seeded serially, so groups
	// are independent of the worker count and a fixed seed reproduces the
	// same estimate at any parallelism level.
	seeds := make([]uint64, t)
	for g := range seeds {
		seeds[g] = p.RNG.Uint64()
	}
	res.PerIteration = make([]float64, t)
	par.Run(t, p.Parallelism, func(g int) {
		grng := stats.NewRNG(seeds[g])
		x := bitvec.New(d.N)
		hits := 0
		for s := 0; s < samplesPerGroup; s++ {
			i := sampleIndex(weights, totalW, grng)
			sampleTermSolutionInto(norms[i], grng, x)
			if firstSatisfiedTerm(d, x) == i {
				hits++
			}
		}
		res.PerIteration[g] = totalW * float64(hits) / float64(samplesPerGroup)
	})
	res.Estimate = stats.Median(res.PerIteration)
	return res
}

func sampleIndex(weights []float64, total float64, rng *stats.RNG) int {
	target := rng.Float64() * total
	acc := 0.0
	for i, w := range weights {
		acc += w
		if target < acc {
			return i
		}
	}
	return len(weights) - 1
}

// sampleTermSolutionInto draws a uniform satisfying assignment of a
// consistent normalized term into x (caller-owned scratch): fixed literals
// as dictated, free variables uniform.
func sampleTermSolutionInto(t formula.Term, rng *stats.RNG, x bitvec.BitVec) {
	x.FillRandom(rng.Uint64)
	for _, l := range t {
		x.Set(l.Var, !l.Neg)
	}
}

func firstSatisfiedTerm(d *formula.DNF, x bitvec.BitVec) int {
	for i, t := range d.Terms {
		if t.Eval(x) {
			return i
		}
	}
	return -1
}
