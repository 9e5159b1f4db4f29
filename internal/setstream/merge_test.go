package setstream

import (
	"testing"

	"mcf0/internal/bitvec"
	"mcf0/internal/formula"
	"mcf0/internal/gf2"
	"mcf0/internal/stats"
)

// randomAffine draws a random system ⟨A, b⟩ with `rows` rows over n vars.
func randomAffine(n, rows int, rng *stats.RNG) (*gf2.Matrix, bitvec.BitVec) {
	return gf2.RandomMatrix(rows, n, rng.Uint64), bitvec.Random(rows, rng.Uint64)
}

// Merge differential: splitting a DNF item stream across two same-seed
// streams and merging must leave the sketch bit-identical to one stream
// processing every item.
func TestDNFStreamMergeVsSingle(t *testing.T) {
	rng := stats.NewRNG(991)
	n := 14
	var items []*formula.DNF
	for i := 0; i < 14; i++ {
		items = append(items, formula.RandomDNF(n, 3, 5, rng))
	}
	whole := NewDNFStream(n, testOpts(7001))
	left := NewDNFStream(n, testOpts(7001))
	right := NewDNFStream(n, testOpts(7001))
	for _, d := range items {
		whole.ProcessDNF(d)
	}
	for _, d := range items[:7] {
		left.ProcessDNF(d)
	}
	for _, d := range items[7:] {
		right.ProcessDNF(d)
	}
	if err := left.Merge(right); err != nil {
		t.Fatalf("merge: %v", err)
	}
	requireSketchEqual(t, whole.sk, left.sk)
	if whole.Estimate() != left.Estimate() {
		t.Fatal("merged estimate diverges from single-stream estimate")
	}
}

// Same-seed affine streams must also merge exactly.
func TestAffineStreamMergeVsSingle(t *testing.T) {
	rng := stats.NewRNG(992)
	n := 12
	whole := NewAffineStream(n, testOpts(7002))
	left := NewAffineStream(n, testOpts(7002))
	right := NewAffineStream(n, testOpts(7002))
	for i := 0; i < 8; i++ {
		a, b := randomAffine(n, 3, rng)
		whole.ProcessAffine(a, b)
		if i < 4 {
			left.ProcessAffine(a, b)
		} else {
			right.ProcessAffine(a, b)
		}
	}
	if err := right.Merge(left); err != nil {
		t.Fatalf("merge: %v", err)
	}
	requireSketchEqual(t, whole.sk, right.sk)
	if whole.Estimate() != right.Estimate() {
		t.Fatal("merged estimate diverges from single-stream estimate")
	}
}

// Streams with different draws must refuse to merge.
func TestStreamMergeIncompatible(t *testing.T) {
	n := 12
	a := NewDNFStream(n, testOpts(1))
	b := NewDNFStream(n, testOpts(2))
	if err := a.Merge(b); err == nil {
		t.Fatal("merging different draws must fail")
	}
	c := NewDNFStream(n+1, testOpts(1))
	if err := a.Merge(c); err == nil {
		t.Fatal("merging different widths must fail")
	}
}
