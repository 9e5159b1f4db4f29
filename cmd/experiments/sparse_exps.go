package main

import (
	"fmt"

	"mcf0/internal/counting"
	"mcf0/internal/exact"
	"mcf0/internal/formula"
	"mcf0/internal/hash"
	"mcf0/internal/oracle"
	"mcf0/internal/stats"
)

func init() {
	register("A04-sparsexor", "§6 'Sparse XORs': sparse vs dense hash rows in ApproxMC", runA4)
	register("A05-sampling", "§6 'Sampling': near-uniform solution sampling via the bucketing sketch", runA5)
}

func runA4(c runConfig) {
	trials := c.trials
	if trials == 0 {
		trials = pick(c.quick, 5, 12)
	}
	rng := stats.NewRNG(c.seed)
	n := 16
	cnf, _ := formula.PlantedKCNF(n, 3*n/2, 3, rng)
	truth := float64(exact.CountCNF(cnf))
	tab := newTable("family", "avg row weight", "rel.err(med)", "in-band", "oracle calls")
	configs := []struct {
		name string
		fam  hash.Family
	}{
		{"dense (toeplitz)", hash.NewToeplitz(n, n)},
		{"sparse d=0.25", hash.NewSparse(n, n, 0.25)},
		{"sparse d=0.125", hash.NewSparse(n, n, 0.125)},
	}
	for _, cfgFam := range configs {
		// Measure average row weight over a few draws.
		weight := 0
		const probes = 10
		probeRng := stats.NewRNG(c.seed + 7)
		for i := 0; i < probes; i++ {
			a := cfgFam.fam.Draw(probeRng.Uint64).(*hash.Linear).A()
			for r := 0; r < a.Rows(); r++ {
				weight += a.Row(r).PopCount()
			}
		}
		avgW := float64(weight) / float64(probes*n)
		var queries int64
		re, rate := accuracy(truth, 0.8, trials, func(seed uint64) float64 {
			src := oracle.NewCNFSource(cnf)
			res := counting.ApproxMC(src, withSeed(harnessOpts(seed, c), seed), counting.Variant{Family: cfgFam.fam})
			queries = res.OracleQueries
			return res.Estimate
		})
		tab.add(cfgFam.name, avgW, re, rate, queries)
	}
	tab.print()
	fmt.Println("  §6 direction: moderately sparse rows keep estimates in-band while each XOR")
	fmt.Println("  touches far fewer variables than dense (≈ n/2 per row); push density too low")
	fmt.Println("  and accuracy collapses — exactly the trade-off the sparse-hashing literature")
	fmt.Println("  (Meel–Akshay: density Θ(log m/m) with corrected analysis) formalises")
}

func runA5(c runConfig) {
	rng := stats.NewRNG(c.seed)
	// A formula with a known 32-element solution set.
	n := 11
	cnf := formula.NewCNF(n)
	for v := 0; v < n-5; v++ {
		cnf.AddClause(formula.Clause{formula.Pos(v)})
	}
	src := oracle.NewCNFSource(cnf)
	samples := pick(c.quick, 320, 960)
	opts := harnessOpts(c.seed, c)
	opts.RNG = rng
	counts := map[string]int{}
	for _, x := range counting.Sample(src, samples, opts) {
		counts[x.Key()]++
	}
	expected := float64(samples) / 32
	minC, maxC := samples, 0
	for _, cc := range counts {
		if cc < minC {
			minC = cc
		}
		if cc > maxC {
			maxC = cc
		}
	}
	tab := newTable("solutions", "samples", "hit", "expected/solution", "min", "max", "max/min")
	tab.add(32, samples, len(counts), expected, minC, maxC, float64(maxC)/float64(maxC0(minC)))
	tab.print()
	fmt.Println("  §6 direction (JVV counting↔sampling): every solution is hit, frequencies")
	fmt.Println("  concentrate around uniform — the bucketing sketch doubles as a sampler")
}

func maxC0(v int) int {
	if v == 0 {
		return 1
	}
	return v
}
