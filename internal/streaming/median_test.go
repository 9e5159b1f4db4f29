package streaming

import (
	"math"
	"slices"
	"testing"

	"mcf0/internal/stats"
)

// perCopyEstimates returns one estimate per sketch copy, computed from
// the copy's own state: size·2^level for a Bucketing copy, the k-min
// set's estimate for a Minimum copy, and the Lemma 3 coupon estimate of
// an Estimation grid row at the tracker's suggested r.
func perCopyEstimates(s Sketch) []float64 {
	var ests []float64
	switch sk := s.(type) {
	case *Bucketing:
		for _, c := range sk.copies {
			ests = append(ests, float64(c.size())*math.Pow(2, float64(c.level)))
		}
	case *Minimum:
		for i := range sk.sk.Copies() {
			_, set := sk.sk.Copy(i)
			ests = append(ests, set.Estimate())
		}
	case *Estimation:
		r := sk.SuggestR()
		for i := range sk.copies() {
			hits := 0
			for _, v := range sk.row(i) {
				if int(v) >= r {
					hits++
				}
			}
			ests = append(ests, stats.CouponEstimate(hits, sk.thresh, r))
		}
	}
	return ests
}

// Every F0 sketch estimates the median of all of its copies, at one copy
// and at odd and even counts: there is one per-copy estimate per
// Iterations, and Estimate is their stats.Median, bit for bit, so no
// accuracy statistic can see a copy dropped, added or counted twice. At
// the larger counts the copies must not all agree, or the check could
// not see one dropped.
func TestSketchesEstimateMedianOfEveryCopy(t *testing.T) {
	const n = 20
	xs := make([]uint64, 3000)
	for i := range xs {
		xs[i] = stats.Mix64(uint64(i)) >> (64 - n)
	}
	for _, iters := range []int{1, 2, 5, 6} {
		opts := func() Options {
			return Options{Thresh: 16, Iterations: iters, RNG: stats.NewRNG(0x3ed5), Parallelism: 2}
		}
		for name, s := range map[string]Sketch{
			"bucketing":  NewBucketing(n, opts()),
			"minimum":    NewMinimum(n, opts()),
			"estimation": NewEstimation(n, opts()),
		} {
			s.ProcessBatch(xs)
			per := perCopyEstimates(s)
			if len(per) != iters {
				t.Fatalf("%s iterations=%d: %d copies", name, iters, len(per))
			}
			if got, want := s.Estimate(), stats.Median(per); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s iterations=%d: estimate %v, median of the copies %v", name, iters, got, want)
			}
			if iters >= 5 && len(slices.Compact(slices.Sorted(slices.Values(per)))) < 2 {
				t.Fatalf("%s iterations=%d: every copy estimated %v", name, iters, per[0])
			}
		}
	}
}
