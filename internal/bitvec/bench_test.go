package bitvec

import (
	"fmt"
	"testing"
)

// The microbenchmarks below cover the kernels on the counting stack's hot
// paths: comparisons and trailing-zero scans (Minimum/Estimation sketches),
// prefix tests (Bucketing), and the dedup key construction.

func benchVecs(n int) (BitVec, BitVec) {
	seed := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		seed += 0x9e3779b97f4a7c15
		z := seed
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		return z ^ (z >> 27)
	}
	a := Random(n, next)
	b := a.Clone()
	// Differ only in the last bit so Cmp/Less walk the full width.
	b.Flip(n - 1)
	return a, b
}

var (
	sinkInt    int
	sinkFloat  float64
	sinkString string
)

func BenchmarkKeyString(b *testing.B) {
	x, _ := benchVecs(192)
	for i := 0; i < b.N; i++ {
		sinkString = x.Key()
	}
}

var sinkFP Fingerprint

func BenchmarkFingerprint(b *testing.B) {
	for _, n := range []int{64, 192} {
		x, _ := benchVecs(n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sinkFP = x.Fingerprint()
			}
		})
	}
}

func BenchmarkCmp(b *testing.B) {
	for _, n := range []int{64, 192, 1024} {
		x, y := benchVecs(n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sinkInt = x.Cmp(y)
			}
		})
	}
}

func BenchmarkTrailingZeros(b *testing.B) {
	for _, n := range []int{64, 192, 1024} {
		x := New(n)
		x.Set(0, true) // n-1 trailing zeros: worst-case scan
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sinkInt = x.TrailingZeros()
			}
		})
	}
}

func BenchmarkFraction(b *testing.B) {
	x, _ := benchVecs(192)
	for i := 0; i < b.N; i++ {
		sinkFloat = x.Fraction()
	}
}

func BenchmarkUint64(b *testing.B) {
	x, _ := benchVecs(64)
	for i := 0; i < b.N; i++ {
		sinkInt = int(x.Uint64())
	}
}

func BenchmarkString(b *testing.B) {
	x, _ := benchVecs(192)
	for i := 0; i < b.N; i++ {
		sinkString = x.String()
	}
}
