package main

import (
	"fmt"
	"time"

	"mcf0/internal/bitvec"
	"mcf0/internal/exact"
	"mcf0/internal/formula"
	"mcf0/internal/gf2"
	"mcf0/internal/oracle"
	"mcf0/internal/setstream"
	"mcf0/internal/stats"
	"mcf0/internal/streaming"
)

func init() {
	register("E06-dnfstream", "Theorem 5: F0 over DNF sets — per-item time vs naive expansion", runE6)
	register("E07-ranges", "Lemma 4 + Theorem 6: F0 over d-dimensional ranges", runE7)
	register("E08-affine", "Theorem 7: F0 over affine-space streams", runE8)
	register("E09-blowup", "Observations 1 & 2: DNF blowup vs CNF for [1,2^n-1]^d", runE9)
	register("E10-weighted", "§5: weighted #DNF via the range-stream reduction", runE10)
	register("E11-progressions", "Corollary 1: F0 over arithmetic progressions", runE11)
}

func runE6(c runConfig) {
	rng := stats.NewRNG(c.seed)
	// Items: single-term DNFs over n vars with w literals → set size
	// 2^(n−w). As sets grow, the naive estimator (expand elements into a
	// Minimum sketch) loses to per-item FindMin; this is the crossover.
	tab := newTable("set size", "sketch time/item", "naive time/item", "speedup")
	n := 24
	widths := []int{20, 16, 12}
	if !c.quick {
		widths = append(widths, 8)
	}
	for _, w := range widths {
		items := 8
		var ds []*formula.DNF
		for i := 0; i < items; i++ {
			ds = append(ds, formula.RandomDNF(n, 1, w, rng))
		}
		sk := setstream.NewDNFStream(n, harnessOpts(c.seed, c))
		// Batch ingestion: the per-copy FindMin work for all items fans out
		// with a single pool dispatch.
		skTime := timeIt(func() {
			sk.ProcessDNFBatch(ds)
		}) / time.Duration(items)

		naive := streaming.NewMinimum(n, harnessOpts(c.seed, c))
		naiveTime := timeIt(func() {
			for _, d := range ds {
				src := oracle.NewDNFSource(d)
				src.Enumerate(nil, nil, -1, func(x bitvec.BitVec) bool {
					naive.ProcessBatch([]uint64{x.Uint64()})
					return true
				})
			}
		}) / time.Duration(items)
		size := uint64(1) << uint(n-w)
		tab.add(size, skTime.String(), naiveTime.String(),
			float64(naiveTime)/float64(skTime))
	}
	tab.print()
	fmt.Println("  paper claim: per-item time poly(n,k,1/ε) independent of |set|; naive pays Ω(|set|)")
}

func runE7(c runConfig) {
	trials := c.trials
	if trials == 0 {
		trials = pick(c.quick, 3, 6)
	}
	rng := stats.NewRNG(c.seed)
	tab := newTable("d", "bits/dim", "items", "truth", "rel.err(med)", "in-band", "time/item", "max DNF terms")
	for _, tc := range []struct{ d, bits, items int }{{1, 10, 12}, {2, 7, 10}, {3, 4, 8}} {
		var boxes []formula.MultiRange
		var evals []func(bitvec.BitVec) bool
		maxTerms := 0
		for i := 0; i < tc.items; i++ {
			var dims []formula.Range
			for j := 0; j < tc.d; j++ {
				maxV := uint64(1)<<uint(tc.bits) - 1
				lo := rng.Uint64n(maxV + 1)
				hi := lo + rng.Uint64n(maxV-lo+1)
				dims = append(dims, formula.Range{Lo: lo, Hi: hi, Bits: tc.bits})
			}
			mr := formula.MultiRange{Dims: dims}
			boxes = append(boxes, mr)
			dd, err := formula.MultiRangeDNF(mr)
			if err != nil {
				panic(err)
			}
			if dd.Size() > maxTerms {
				maxTerms = dd.Size()
			}
			evals = append(evals, dd.Eval)
		}
		total := tc.d * tc.bits
		truth := 0.0
		for v := uint64(0); v < 1<<uint(total); v++ {
			x := bitvec.FromUint64(v, total)
			for _, e := range evals {
				if e(x) {
					truth++
					break
				}
			}
		}
		var perItem time.Duration
		re, rate := accuracy(truth, 0.8, trials, func(seed uint64) float64 {
			widths := make([]int, tc.d)
			for i := range widths {
				widths[i] = tc.bits
			}
			rs := setstream.NewRangeStream(widths, harnessOpts(seed, c))
			dur := timeIt(func() {
				for _, b := range boxes {
					if err := rs.ProcessRange(b); err != nil {
						panic(err)
					}
				}
			})
			perItem = dur / time.Duration(len(boxes))
			return rs.Estimate()
		})
		tab.add(tc.d, tc.bits, tc.items, truth, re, rate, perItem.String(), maxTerms)
	}
	tab.print()
	fmt.Println("  paper claim: per-item time poly((nd)⁴·…); DNF size ≤ (2n)^d (visible in last column)")
}

func runE8(c runConfig) {
	trials := c.trials
	if trials == 0 {
		trials = pick(c.quick, 3, 6)
	}
	rng := stats.NewRNG(c.seed)
	// Accuracy at small n against brute force.
	n := 12
	type item struct {
		a *gf2.Matrix
		b bitvec.BitVec
	}
	var items []item
	var evals []func(bitvec.BitVec) bool
	for i := 0; i < 8; i++ {
		rows := 4 + rng.Intn(4)
		a := gf2.RandomMatrix(rows, n, rng.Uint64)
		b := bitvec.Random(rows, rng.Uint64)
		items = append(items, item{a, b})
		aa, bb := a, b
		evals = append(evals, func(x bitvec.BitVec) bool { return aa.MulVec(x).Equal(bb) })
	}
	truth := 0.0
	for v := uint64(0); v < 1<<uint(n); v++ {
		x := bitvec.FromUint64(v, n)
		for _, e := range evals {
			if e(x) {
				truth++
				break
			}
		}
	}
	re, rate := accuracy(truth, 0.8, trials, func(seed uint64) float64 {
		as := setstream.NewAffineStream(n, harnessOpts(seed, c))
		for _, it := range items {
			as.ProcessAffine(it.a, it.b)
		}
		return as.Estimate()
	})
	tab := newTable("n", "truth", "rel.err(med)", "in-band")
	tab.add(n, truth, re, rate)
	tab.print()
	// Per-item time scaling in n (Theorem 7: O(n⁴/ε²·log 1/δ) per item).
	scale := newTable("n", "time/item")
	ns := []int{16, 32}
	if !c.quick {
		ns = append(ns, 48, 64)
	}
	for _, nn := range ns {
		a := gf2.RandomMatrix(nn/2, nn, rng.Uint64)
		b := bitvec.Random(nn/2, rng.Uint64)
		as := setstream.NewAffineStream(nn, harnessOpts(c.seed, c))
		dur := timeIt(func() { as.ProcessAffine(a, b) })
		scale.add(nn, dur.String())
	}
	scale.print()
}

func runE9(c runConfig) {
	tab := newTable("n", "d", "DNF terms", "n^d (lower bd)", "CNF clauses", "2nd (upper bd)")
	for _, tc := range []struct{ n, d int }{{4, 1}, {8, 1}, {4, 2}, {8, 2}, {4, 3}, {6, 3}} {
		var dims []formula.Range
		for i := 0; i < tc.d; i++ {
			dims = append(dims, formula.Range{Lo: 1, Hi: uint64(1)<<uint(tc.n) - 1, Bits: tc.n})
		}
		dnf, err := formula.MultiRangeDNF(formula.MultiRange{Dims: dims})
		if err != nil {
			panic(err)
		}
		cnf, err := formula.MultiRangeCNF(formula.MultiRange{Dims: dims})
		if err != nil {
			panic(err)
		}
		nd := 1
		for i := 0; i < tc.d; i++ {
			nd *= tc.n
		}
		tab.add(tc.n, tc.d, dnf.Size(), nd, cnf.Size(), 2*tc.n*tc.d)
	}
	tab.print()
	fmt.Println("  Observation 1: the DNF for [1,2^n−1]^d needs ≥ n^d terms; Observation 2: CNF stays O(nd)")
}

func runE10(c runConfig) {
	trials := c.trials
	if trials == 0 {
		trials = pick(c.quick, 3, 6)
	}
	rng := stats.NewRNG(c.seed)
	tab := newTable("weighted DNF", "truth W(φ)", "rel.err(med)", "in-band")
	for trial := 0; trial < 3; trial++ {
		n := 4
		d := formula.RandomDNF(n, 3, 2, rng)
		w := exact.WeightFunc{Num: make([]uint64, n), Bits: make([]int, n)}
		for i := 0; i < n; i++ {
			w.Bits[i] = 2 + rng.Intn(3)
			w.Num[i] = 1 + rng.Uint64n(uint64(1)<<uint(w.Bits[i])-1)
		}
		truth := exact.WeightedCountDNF(d, w)
		re, rate := accuracy(truth, 0.8, trials, func(seed uint64) float64 {
			return setstream.WeightedCount(setstream.WeightedDNF{D: d, W: w}, harnessOpts(seed, c))
		})
		tab.add(fmt.Sprintf("n=%d k=3 (#%d)", n, trial), truth, re, rate)
	}
	tab.print()
	fmt.Println("  §5 reduction: W(φ) = F0(term boxes)/2^Σmᵢ — an FPRAS route to weighted #DNF")
}

func runE11(c runConfig) {
	trials := c.trials
	if trials == 0 {
		trials = pick(c.quick, 3, 6)
	}
	rng := stats.NewRNG(c.seed)
	bits := 10
	var items [][]formula.Progression
	var evals []func(bitvec.BitVec) bool
	for i := 0; i < 10; i++ {
		maxV := uint64(1)<<uint(bits) - 1
		a := rng.Uint64n(maxV + 1)
		b := a + rng.Uint64n(maxV-a+1)
		ls := rng.Intn(4)
		p := formula.Progression{A: a, B: b, LogStep: ls, Bits: bits}
		items = append(items, []formula.Progression{p})
		d, err := formula.ProgressionDNF(p)
		if err != nil {
			panic(err)
		}
		evals = append(evals, d.Eval)
	}
	truth := 0.0
	for v := uint64(0); v < 1<<uint(bits); v++ {
		x := bitvec.FromUint64(v, bits)
		for _, e := range evals {
			if e(x) {
				truth++
				break
			}
		}
	}
	re, rate := accuracy(truth, 0.8, trials, func(seed uint64) float64 {
		ps := setstream.NewProgressionStream([]int{bits}, harnessOpts(seed, c))
		for _, it := range items {
			if err := ps.ProcessProgression(it); err != nil {
				panic(err)
			}
		}
		return ps.Estimate()
	})
	tab := newTable("bits", "items", "truth", "rel.err(med)", "in-band")
	tab.add(bits, len(items), truth, re, rate)
	tab.print()
}
