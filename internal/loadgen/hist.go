package loadgen

import (
	"math/bits"
	"time"
)

// Histogram bucket geometry: values below 2^histSubBits land in exact
// unit buckets; above that, each power-of-two octave is split into
// histSubBuckets sub-buckets, bounding the relative quantization error
// of any recorded value by 1/histSubBuckets ≈ 3%. The layout is fixed
// (1920 buckets for the full uint64 range), so histograms merge by
// plain vector addition with no rebinning.
const (
	histSubBits    = 5
	histSubBuckets = 1 << histSubBits
	histNumBuckets = histSubBuckets + (64-histSubBits)*histSubBuckets
)

// Histogram is a fixed-bucket log-linear latency histogram (values in
// nanoseconds). The zero value is ready to use. Not safe for concurrent
// writers — the runner keeps one per worker per op kind and merges.
type Histogram struct {
	counts [histNumBuckets]uint64
	n      uint64
	sum    uint64
	min    uint64
	max    uint64
}

// bucketIndex maps a value to its bucket; monotone in v and exact below
// histSubBuckets.
func bucketIndex(v uint64) int {
	if v < histSubBuckets {
		return int(v)
	}
	exp := bits.Len64(v) - 1 // ≥ histSubBits
	top := exp - histSubBits
	sub := (v >> uint(top)) & (histSubBuckets - 1)
	return histSubBuckets + top*histSubBuckets + int(sub)
}

// bucketUpper returns the largest value a bucket holds (its inclusive
// upper bound) — the conservative representative quantiles report.
func bucketUpper(idx int) uint64 {
	if idx < histSubBuckets {
		return uint64(idx)
	}
	top := (idx - histSubBuckets) / histSubBuckets
	sub := uint64((idx-histSubBuckets)%histSubBuckets) + histSubBuckets
	return (sub+1)<<uint(top) - 1
}

// Record absorbs one value.
func (h *Histogram) Record(v uint64) {
	h.counts[bucketIndex(v)]++
	h.n++
	h.sum += v
	if h.n == 1 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// RecordDuration absorbs one latency (negative durations clamp to 0).
func (h *Histogram) RecordDuration(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.Record(uint64(d))
}

// Count returns the number of recorded values.
func (h *Histogram) Count() uint64 { return h.n }

// Max returns the exact maximum recorded value.
func (h *Histogram) Max() uint64 { return h.max }

// Mean returns the mean recorded value.
func (h *Histogram) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

// Quantile returns an upper bound for the q-quantile (0 ≤ q ≤ 1) of the
// recorded values, within the bucket resolution; the bound is clamped
// to the exact observed extremes. Returns 0 on an empty histogram.
func (h *Histogram) Quantile(q float64) uint64 {
	if h.n == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	target := uint64(q * float64(h.n))
	if float64(target) < q*float64(h.n) {
		target++ // ceil
	}
	if target < 1 {
		target = 1
	}
	if target > h.n {
		target = h.n
	}
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum >= target {
			v := bucketUpper(i)
			if v > h.max {
				v = h.max
			}
			if v < h.min {
				v = h.min
			}
			return v
		}
	}
	return h.max
}

// Merge adds other's recorded values into h.
func (h *Histogram) Merge(other *Histogram) {
	if other.n == 0 {
		return
	}
	for i, c := range other.counts {
		h.counts[i] += c
	}
	if h.n == 0 || other.min < h.min {
		h.min = other.min
	}
	if other.max > h.max {
		h.max = other.max
	}
	h.n += other.n
	h.sum += other.sum
}
