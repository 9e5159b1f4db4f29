package loadgen

import (
	"math/rand/v2"
	"sort"
	"testing"
	"time"
)

// TestBucketGeometry checks the log-linear layout: indices are monotone
// in the value, exact below the linear range, within bounds for the
// whole uint64 range, and bucketUpper is the true inclusive upper bound
// of its bucket.
func TestBucketGeometry(t *testing.T) {
	// Exact unit buckets below 2^histSubBits.
	for v := uint64(0); v < histSubBuckets; v++ {
		if got := bucketIndex(v); got != int(v) {
			t.Fatalf("bucketIndex(%d) = %d, want exact", v, got)
		}
	}
	// Monotone across octave boundaries and adversarial values.
	vals := []uint64{0, 1, 31, 32, 33, 63, 64, 65, 127, 128, 1023, 1024, 1 << 20,
		1<<20 + 1, 1<<40 - 1, 1 << 40, 1<<63 - 1, 1 << 63, ^uint64(0)}
	rng := rand.New(rand.NewPCG(7, 7))
	for i := 0; i < 10000; i++ {
		vals = append(vals, rng.Uint64())
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	prev := -1
	for _, v := range vals {
		idx := bucketIndex(v)
		if idx < 0 || idx >= histNumBuckets {
			t.Fatalf("bucketIndex(%d) = %d out of [0,%d)", v, idx, histNumBuckets)
		}
		if idx < prev {
			t.Fatalf("bucketIndex not monotone at %d: %d < %d", v, idx, prev)
		}
		prev = idx
		// The value must sit at or below its bucket's upper bound, and
		// above the previous bucket's.
		up := bucketUpper(idx)
		if v > up {
			t.Fatalf("value %d above its bucket upper bound %d", v, up)
		}
		if idx > 0 && v <= bucketUpper(idx-1) {
			t.Fatalf("value %d not above previous bucket's upper bound %d", v, bucketUpper(idx-1))
		}
	}
	// bucketUpper is a right inverse: every bucket's upper bound maps
	// back to that bucket.
	for idx := 0; idx < histNumBuckets-1; idx++ {
		if got := bucketIndex(bucketUpper(idx)); got != idx {
			t.Fatalf("bucketIndex(bucketUpper(%d)) = %d", idx, got)
		}
	}
}

// TestQuantileAccuracy compares histogram quantiles against the exact
// order statistics of the recorded sample: the histogram answer must be
// ≥ the exact one (conservative upper bound) and within the ~1/32
// bucket resolution.
func TestQuantileAccuracy(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 9))
	var h Histogram
	vals := make([]uint64, 20000)
	for i := range vals {
		// Latency-shaped values: a lognormal-ish spread over µs–ms.
		v := uint64(1000) + rng.Uint64N(1<<uint(10+rng.IntN(14)))
		vals[i] = v
		h.Record(v)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	for _, q := range []float64{0, 0.5, 0.9, 0.99, 0.999, 1} {
		exactIdx := int(q*float64(len(vals))) - 1
		if exactIdx < 0 {
			exactIdx = 0
		}
		exact := vals[exactIdx]
		got := h.Quantile(q)
		if got < exact {
			t.Fatalf("Quantile(%g) = %d below exact %d", q, got, exact)
		}
		if float64(got) > float64(exact)*(1+2.0/histSubBuckets)+1 {
			t.Fatalf("Quantile(%g) = %d too far above exact %d", q, got, exact)
		}
	}
	if h.Max() != vals[len(vals)-1] || h.Min() != vals[0] {
		t.Fatalf("exact extremes lost: min %d max %d vs %d %d", h.Min(), h.Max(), vals[0], vals[len(vals)-1])
	}
	if h.Quantile(1) != h.Max() {
		t.Fatalf("Quantile(1) = %d != max %d", h.Quantile(1), h.Max())
	}
}

// TestHistogramMerge asserts merging partial histograms reproduces the
// single-histogram state exactly (the runner's per-worker merge).
func TestHistogramMerge(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 13))
	var whole Histogram
	parts := make([]Histogram, 4)
	for i := 0; i < 50000; i++ {
		v := rng.Uint64N(1 << 30)
		whole.Record(v)
		parts[i%4].Record(v)
	}
	var merged Histogram
	for i := range parts {
		merged.Merge(&parts[i])
	}
	if merged != whole {
		t.Fatal("merged histogram differs from single-stream histogram")
	}
	// Merging into an empty histogram preserves extremes.
	var empty Histogram
	empty.Merge(&whole)
	if empty.Min() != whole.Min() || empty.Max() != whole.Max() || empty.Count() != whole.Count() {
		t.Fatal("merge into empty lost state")
	}
}

// TestHistogramEmpty pins the zero-value behaviour the report relies on.
func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Quantile(0.99) != 0 || h.Mean() != 0 || h.Count() != 0 || h.Max() != 0 {
		t.Fatal("empty histogram not all-zero")
	}
	h.RecordDuration(-5 * time.Millisecond) // negative clamps, never panics
	if h.Count() != 1 || h.Max() != 0 {
		t.Fatal("negative duration not clamped to 0")
	}
}

// Min returns the exact minimum recorded value (0 when empty).
func (h *Histogram) Min() uint64 { return h.min }
