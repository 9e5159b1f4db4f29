// Package distributed implements Section 4 of the paper: distributed DNF
// counting. A DNF φ is partitioned into k subformulas held by k sites; a
// coordinator must produce an (ε, δ)-approximation of |Sol(φ)| while
// minimising communication. All three transformations of Section 3 carry
// over; this package implements each protocol and meters exact message
// bits, the quantity the paper's bounds govern:
//
//   - Bucketing:  Õ(k·(n + 1/ε²)·log(1/δ)) bits — sites send fingerprints
//     and trailing-zero levels of their cell contents;
//   - Minimum:    O(k·n/ε²·log(1/δ)) bits — sites send their Thresh
//     smallest 3n-bit hash values;
//   - Estimation: Õ(k·(n + 1/ε²)·log(1/δ)) bits — sites send one
//     trailing-zero count per hash function.
//
// Minimum and Estimation, and Estimation's rough round RoughR, are the
// Section 3 counters (Algorithms 6 and 7 and RoughCount of
// internal/counting) with every FindMin or FindMaxRange question put to
// all sites — the paper's transformation of distributed streaming into
// distributed counting — so they share those counters' hash draws and
// median-trial engine. The sites and coordinator are simulated in-process
// and deterministically; the independent median trials run across
// Options.Parallelism workers (hashes drawn serially up front, message
// tallies summed), which changes nothing about the communication cost the
// experiments measure.
package distributed

import (
	"math"
	"sync/atomic"

	"mcf0/internal/bitvec"
	"mcf0/internal/counting"
	"mcf0/internal/formula"
	"mcf0/internal/hash"
	"mcf0/internal/kmv"
	"mcf0/internal/oracle"
	"mcf0/internal/par"
	"mcf0/internal/params"
	"mcf0/internal/stats"
)

// Options parameterises the protocols; the zero value selects the paper's
// constants (see params.Resolve).
type Options = params.Options

// defaultSeed seeds the hash draws of a protocol run with a nil RNG.
const defaultSeed = 0xd15721b07ed

// Comm tallies the exact number of bits exchanged.
type Comm struct {
	CoordToSites int64 // hash function descriptions broadcast
	SitesToCoord int64 // sketch contents returned
}

// Total returns the total communication in bits.
func (c Comm) Total() int64 { return c.CoordToSites + c.SitesToCoord }

// Result reports the coordinator's estimate and the protocol's cost.
type Result struct {
	Estimate float64
	Comm     Comm
	// PerIteration carries the per-hash estimates behind the median.
	PerIteration []float64
}

// Split partitions a DNF into k subformulas by dealing terms round-robin —
// the "arbitrary partition" of the distributed functional monitoring view.
func Split(d *formula.DNF, k int) []*formula.DNF {
	if k < 1 {
		panic("distributed: need at least one site")
	}
	parts := make([]*formula.DNF, k)
	for i := range parts {
		parts[i] = formula.NewDNF(d.N)
	}
	for i, t := range d.Terms {
		parts[i%k].AddTerm(t)
	}
	return parts
}

// toeplitzBits is the broadcast cost of one H_Toeplitz(n, m) function:
// n+m−1 diagonal bits plus m offset bits.
func toeplitzBits(n, m int) int64 { return int64(n + m - 1 + m) }

// xorBits is the broadcast cost of one H_xor(n, m) function: the full
// matrix plus offset.
func xorBits(n, m int) int64 { return int64(n*m + m) }

// levelBits is the cost of sending one trailing-zero level in [0, n].
func levelBits(n int) int64 {
	b := int64(1)
	for 1<<uint(b) < n+1 {
		b++
	}
	return b
}

// Bucketing runs the distributed Bucketing protocol. Cells are defined by
// trailing zeros of H[i](x) (distributionally identical to the prefix form
// and what lets a site's message ⟨G(x), TrailZero(H[i](x))⟩ serve every
// level ≥ its own): site j sends one tuple per element of its level-m_{i,j}
// cell, where m_{i,j} is the smallest level whose local cell is below
// Thresh. The coordinator unions tuples by fingerprint, finds the smallest
// global level whose cell is below Thresh, and estimates as in ApproxMC.
func Bucketing(parts []*formula.DNF, opts Options) Result {
	k := len(parts)
	n := parts[0].N
	o := opts.Resolve(defaultSeed)
	thresh, t, rng := o.Thresh, o.Iterations, o.RNG

	// Fingerprint width: collisions among ≤ k·Thresh distinct elements per
	// iteration must be unlikely across t iterations.
	pairs := float64(k*thresh) * float64(k*thresh) * float64(t)
	gBits := int(math.Ceil(math.Log2(pairs / o.Delta)))
	if gBits < 1 {
		gBits = 1
	}
	if gBits > 2*n {
		gBits = 2 * n
	}

	var res Result
	hFam := hash.NewToeplitz(n, n)
	gFam := hash.NewXor(n, gBits)
	g := gFam.Draw(rng.Uint64).(*hash.Linear)
	res.Comm.CoordToSites += int64(k) * xorBits(n, gBits)

	hs := make([]*hash.Linear, t)
	for i := range hs {
		hs[i] = hFam.Draw(rng.Uint64).(*hash.Linear)
	}
	res.Comm.CoordToSites += int64(t) * int64(k) * toeplitzBits(n, n)

	// Every (trial, site) pair gets an independent source handle so trials
	// can run concurrently.
	srcs := make([][]oracle.Source, t)
	for i := range srcs {
		srcs[i] = make([]oracle.Source, k)
		for j := range parts {
			srcs[i][j] = oracle.NewDNFSource(parts[j])
		}
	}

	ests := make([]float64, t)
	sitesToCoord := make([]int64, t)
	// The dynamic pool: per-trial cost varies with the planted formula.
	par.Run(t, o.Parallelism, func(i int) {
		h := hs[i]
		hScratch := bitvec.New(n)
		gScratch := bitvec.New(gBits)
		var bitsSent int64

		// tuples: fingerprint key → trailing-zero level of H(x). Each site
		// also reports its local level; the coordinator's tuple set is
		// complete only for levels ≥ the maximum local level (below it,
		// some site had ≥ Thresh elements it did not send).
		tuples := map[bitvec.Fingerprint]int{}
		maxLocal := 0
		for j := 0; j < k; j++ {
			site, local := siteBucketCell(srcs[i][j], h, thresh)
			bitsSent += levelBits(n)
			if local > maxLocal {
				maxLocal = local
			}
			for _, x := range site {
				h.EvalInto(x, hScratch)
				tz := hScratch.TrailingZeros()
				g.EvalInto(x, gScratch)
				fp := gScratch.Fingerprint()
				bitsSent += int64(gBits) + levelBits(n)
				if old, ok := tuples[fp]; !ok || tz > old {
					tuples[fp] = tz
				}
			}
		}
		// Coordinator: smallest level m ≥ maxLocal with
		// |{fp : tz ≥ m}| < Thresh (the true global level is ≥ every local
		// level, so the search range is where the data is complete).
		m := maxLocal
		for {
			count := 0
			for _, tz := range tuples {
				if tz >= m {
					count++
				}
			}
			if count < thresh || m == n {
				ests[i] = float64(count) * math.Pow(2, float64(m))
				break
			}
			m++
		}
		sitesToCoord[i] = bitsSent
	})
	res.PerIteration = ests
	for _, b := range sitesToCoord {
		res.Comm.SitesToCoord += b
	}
	res.Estimate = stats.Median(res.PerIteration)
	return res
}

// siteBucketCell returns the site's level-m cell contents and the level m
// itself, for the smallest m at which the cell is below Thresh — the
// BoundedSAT adaptation of Section 4, with cells keyed by trailing zeros.
func siteBucketCell(src oracle.Source, h *hash.Linear, thresh int) ([]bitvec.BitVec, int) {
	n := h.InBits()
	for m := 0; ; m++ {
		cons := h.SuffixZeroSystem(m)
		var cell []bitvec.BitVec
		c := src.Enumerate(cons, nil, thresh, func(x bitvec.BitVec) bool {
			cell = append(cell, x)
			return true
		})
		if c < thresh || m == n {
			return cell, m
		}
	}
}

// Minimum runs the distributed Minimum protocol on Algorithm 6
// (counting.ApproxModelCountMin): each site sends the Thresh
// lexicographically smallest 3n-bit hash values of its solutions, and the
// coordinator merges them into the trial's global Thresh smallest.
func Minimum(parts []*formula.DNF, opts Options) Result {
	k := len(parts)
	n := parts[0].N
	o := opts.Resolve(defaultSeed)
	var sent atomic.Int64
	res := counting.ApproxModelCountMin(n, func(_ int, h *hash.Linear, global *kmv.Set) {
		site := kmv.New(3*n, o.Thresh)
		tmp := make([]uint64, o.Thresh*((3*n+63)/64))
		for _, part := range parts {
			site.Reset()
			counting.FindMinDNF(part, h, site)
			sent.Add(int64(site.Len()) * int64(3*n))
			global.Merge(site, tmp)
		}
	}, o)
	return Result{
		Estimate:     res.Estimate,
		PerIteration: res.PerIteration,
		Comm: Comm{
			CoordToSites: int64(o.Iterations) * int64(k) * toeplitzBits(n, 3*n),
			SitesToCoord: sent.Load(),
		},
	}
}

// Estimation runs the distributed Estimation protocol on Algorithm 7
// (counting.ApproxModelCountEst): for every hash function the sites send
// their local maximum trailing-zero count (one level value each) and the
// coordinator takes the maximum — trailing-zero maxima compose under
// union. The range parameter r must satisfy 2F0 ≤ 2^r ≤ 50F0 (see
// RoughR). Sites answer FindMaxRange with the exhaustive tester, as no
// polynomial algorithm is known for DNF (Section 3.4); callers therefore
// cap n at oracle.ExhaustiveMaxVars.
func Estimation(parts []*formula.DNF, r int, opts Options) Result {
	k := len(parts)
	n := parts[0].N
	o := opts.Resolve(defaultSeed)
	sites := make(siteTesters, k)
	for j, part := range parts {
		sites[j] = oracle.NewExhaustive(n, part.Eval)
	}
	res := counting.ApproxModelCountEst(sites, n, r, o)
	// Per-(hash, site) message costs are data-independent: s coefficients
	// of n bits down, one level value back.
	msgs := int64(o.Iterations) * int64(o.Thresh) * int64(k)
	return Result{
		Estimate:     res.Estimate,
		PerIteration: res.PerIteration,
		Comm: Comm{
			CoordToSites: msgs * int64(counting.SWiseIndependence(o.Epsilon)*n),
			SitesToCoord: msgs * levelBits(n),
		},
	}
}

// siteTesters is the coordinator's view of the sites as one
// TrailingZeroTester: every question goes to every site.
type siteTesters []oracle.TrailingZeroTester

// MaxTrailingZeros is the maximum of the sites' FindMaxRange replies (−1
// when every site is unsatisfiable): trailing-zero maxima compose under
// union.
func (s siteTesters) MaxTrailingZeros(h hash.Func, maxT int) int {
	best := -1
	for _, site := range s {
		best = max(best, site.MaxTrailingZeros(h, maxT))
	}
	return best
}

// Queries sums the sites' meters.
func (s siteTesters) Queries() int64 {
	var total int64
	for _, site := range s {
		total += site.Queries()
	}
	return total
}

// ForkTester forks every site; the exhaustive sites' forks share each
// site's materialised solution list, so concurrent trials scan it
// read-only.
func (s siteTesters) ForkTester() oracle.TrailingZeroTester {
	forks := make(siteTesters, len(s))
	for j, site := range s {
		forks[j] = site.ForkTester()
	}
	return forks
}

// RoughR runs a distributed Flajolet–Martin round to pick the Estimation
// protocol's range parameter: counting.RoughCount over the sites, which
// send the maximum trailing-zero count of a shared pairwise-independent
// linear hash over their local solutions (oracle.LinearTester over
// DNFSource); the coordinator medians over trials and offsets into the
// Lemma 3 window. Per (trial, site) the costs are data-independent: one
// H_xor description down, one level value back. An unsatisfiable φ fails
// the first trial whatever the hash, so it costs one trial.
func RoughR(parts []*formula.DNF, trials int, opts Options) (int, Comm) {
	k := len(parts)
	n := parts[0].N
	sites := make(siteTesters, k)
	for j, part := range parts {
		sites[j] = oracle.LinearTester{Source: oracle.NewDNFSource(part)}
	}
	r, _ := counting.RoughCount(sites, n, trials, opts.Resolve(defaultSeed).RNG)
	if r < 0 {
		trials = 1
	}
	msgs := int64(trials) * int64(k)
	return r, Comm{CoordToSites: msgs * xorBits(n, n), SitesToCoord: msgs * levelBits(n)}
}
