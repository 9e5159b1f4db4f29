package main

import (
	"fmt"
	"time"

	"mcf0/internal/distributed"
	"mcf0/internal/exact"
	"mcf0/internal/formula"
	"mcf0/internal/stats"
	"mcf0/internal/streaming"
)

func init() {
	register("E04-f0sketches", "Lemmas 1-3: the three F0 sketches — accuracy, space, time/item", runE4)
	register("E05-distributed", "§4: distributed DNF counting — accuracy and communication bits", runE5)
}

func uniformStream(n, distinct, length int, rng *stats.RNG) []uint64 {
	vals := make([]uint64, distinct)
	seen := map[uint64]bool{}
	for i := range vals {
		for {
			v := rng.Uint64n(uint64(1) << uint(n))
			if !seen[v] {
				seen[v] = true
				vals[i] = v
				break
			}
		}
	}
	out := append(make([]uint64, 0, length), vals...)
	for len(out) < length {
		out = append(out, vals[rng.Intn(distinct)])
	}
	return out
}

// zipfStream draws elements with a heavy-tailed repeat distribution while
// still guaranteeing every distinct value appears.
func zipfStream(n, distinct, length int, rng *stats.RNG) []uint64 {
	base := uniformStream(n, distinct, distinct, rng)
	out := append([]uint64(nil), base...)
	for len(out) < length {
		// Index ∝ 1/(i+1): inverse-CDF-ish via rejection.
		i := rng.Intn(distinct)
		j := rng.Intn(distinct)
		if j < i {
			i = j
		}
		out = append(out, base[i])
	}
	return out
}

func runE4(c runConfig) {
	trials := c.trials
	if trials == 0 {
		trials = pick(c.quick, 4, 8)
	}
	n := 32
	tab := newTable("sketch", "workload", "F0", "rel.err(med)", "in-band", "words", "ns/item")
	f0s := []int{100, 10_000}
	if !c.quick {
		f0s = append(f0s, 100_000)
	}
	type mk struct {
		name  string
		build func(seed uint64) streaming.Sketch
	}
	mks := []mk{
		{"bucketing", func(s uint64) streaming.Sketch { return streaming.NewBucketing(n, harnessOpts(s, c)) }},
		{"minimum", func(s uint64) streaming.Sketch { return streaming.NewMinimum(n, harnessOpts(s, c)) }},
	}
	for _, workload := range []string{"uniform", "zipf"} {
		for _, f0 := range f0s {
			for _, m := range mks {
				var words int
				var perItem time.Duration
				re, rate := accuracy(float64(f0), 0.8, trials, func(seed uint64) float64 {
					rng := stats.NewRNG(seed)
					var stream []uint64
					if workload == "uniform" {
						stream = uniformStream(n, f0, 2*f0, rng)
					} else {
						stream = zipfStream(n, f0, 2*f0, rng)
					}
					e := m.build(seed)
					// Chunked ingestion: one pool dispatch per 256 elements.
					dur := timeIt(func() {
						for lo := 0; lo < len(stream); lo += 256 {
							e.ProcessBatch(stream[lo:min(lo+256, len(stream))])
						}
					})
					perItem = dur / time.Duration(len(stream))
					words = e.SketchWords()
					return e.Estimate()
				})
				tab.add(m.name, workload, f0, re, rate, words, perItem.Nanoseconds())
			}
		}
	}
	// Estimation sketch: heavier per-item cost, smaller workload.
	estF0 := pick(c.quick, 100, 500)
	var words int
	re, rate := accuracy(float64(estF0), 0.8, trials, func(seed uint64) float64 {
		rng := stats.NewRNG(seed)
		stream := uniformStream(24, estF0, estF0, rng)
		o := harnessOpts(seed, c)
		o.Iterations = 7
		e := streaming.NewEstimation(24, o)
		e.ProcessBatch(stream)
		words = e.SketchWords()
		return e.Estimate()
	})
	tab.add("estimation", "uniform", estF0, re, rate, words, "-")
	tab.print()
	fmt.Println("  paper claim: all three sketches are (ε,δ)-correct; sketch space O(Thresh·t) ≪ F0")
}

func runE5(c runConfig) {
	trials := c.trials
	if trials == 0 {
		trials = pick(c.quick, 3, 6)
	}
	rng := stats.NewRNG(c.seed)
	n := 16
	d := formula.RandomDNF(n, 16, 6, rng)
	truth := float64(exact.CountDNF(d))
	ks := []int{2, 4, 8}
	if !c.quick {
		ks = append(ks, 16)
	}
	tab := newTable("protocol", "sites k", "rel.err(med)", "in-band", "bits coord→sites", "bits sites→coord", "bits total")
	for _, k := range ks {
		parts := distributed.Split(d, k)
		for _, proto := range []string{"bucketing", "minimum"} {
			var comm distributed.Comm
			re, rate := accuracy(truth, 0.8, trials, func(seed uint64) float64 {
				o := harnessOpts(seed, c)
				var res distributed.Result
				if proto == "bucketing" {
					res = distributed.Bucketing(parts, o)
				} else {
					res = distributed.Minimum(parts, o)
				}
				comm = res.Comm
				return res.Estimate
			})
			tab.add(proto, k, re, rate, comm.CoordToSites, comm.SitesToCoord, comm.Total())
		}
		// Estimation protocol (exhaustive tester; n = 16 is fine).
		var comm distributed.Comm
		re, rate := accuracy(truth, 0.8, trials, func(seed uint64) float64 {
			o := harnessOpts(seed, c)
			o.Iterations = 5
			r, extra := distributed.RoughR(parts, 5, o)
			res := distributed.Estimation(parts, r, o)
			comm = res.Comm
			comm.CoordToSites += extra.CoordToSites
			comm.SitesToCoord += extra.SitesToCoord
			return res.Estimate
		})
		tab.add("estimation", k, re, rate, comm.CoordToSites, comm.SitesToCoord, comm.Total())
	}
	tab.print()
	fmt.Println("  paper claims: Bucketing/Estimation Õ(k(n+1/ε²)log 1/δ) bits; Minimum O(kn/ε²·log 1/δ) bits;")
	fmt.Println("  lower bound Ω(k/ε²) — all protocols must grow linearly in k (visible above)")
}
