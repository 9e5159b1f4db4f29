package distributed

import (
	"math"
	"slices"
	"testing"

	"mcf0/internal/exact"
	"mcf0/internal/formula"
	"mcf0/internal/stats"
)

// Every protocol reports the median of all of its trials, at one trial
// and at odd and even counts: PerIteration holds one estimate per hash
// function and Estimate is their stats.Median, bit for bit, so no
// accuracy statistic can see a trial dropped, added or counted twice. At
// the larger counts the trials must not all agree, or the check could
// not see one dropped.
func TestProtocolsReportMedianOfEveryTrial(t *testing.T) {
	d := formula.RandomDNF(12, 6, 4, stats.NewRNG(0x3ed3))
	parts := Split(d, 3)
	r := min(d.N, int(math.Ceil(math.Log2(2*float64(exact.CountDNF(d)))))) // 2F0 ≤ 2^r ≤ 50F0
	protocols := []struct {
		name string
		run  func(Options) Result
	}{
		{"Bucketing", func(o Options) Result { return Bucketing(parts, o) }},
		{"Minimum", func(o Options) Result { return Minimum(parts, o) }},
		{"Estimation", func(o Options) Result { return Estimation(parts, r, o) }},
	}
	for _, p := range protocols {
		for _, iters := range []int{1, 2, 5, 6} {
			res := p.run(Options{Thresh: 16, Iterations: iters, RNG: stats.NewRNG(0x3ed4), Parallelism: 2})
			if len(res.PerIteration) != iters {
				t.Fatalf("%s iterations=%d: %d per-iteration estimates", p.name, iters, len(res.PerIteration))
			}
			if want := stats.Median(res.PerIteration); math.Float64bits(res.Estimate) != math.Float64bits(want) {
				t.Fatalf("%s iterations=%d: estimate %v, median of the trials %v", p.name, iters, res.Estimate, want)
			}
			if iters >= 5 && len(slices.Compact(slices.Sorted(slices.Values(res.PerIteration)))) < 2 {
				t.Fatalf("%s iterations=%d: every trial estimated %v", p.name, iters, res.PerIteration[0])
			}
		}
	}
}
