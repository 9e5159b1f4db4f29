package setstream

import (
	"runtime"
	"testing"

	"mcf0/internal/bitvec"
	"mcf0/internal/formula"
	"mcf0/internal/gf2"
	"mcf0/internal/kmv"
	"mcf0/internal/stats"
)

// Determinism regression: per-copy fan-out must not change estimates for
// a fixed seed.
func TestSetStreamParallelDeterminism(t *testing.T) {
	rng := stats.NewRNG(51)
	items := make([]*formula.DNF, 6)
	for i := range items {
		items[i] = formula.RandomDNF(12, 3, 4, rng)
	}

	run := func(par int) float64 {
		o := Options{Epsilon: 0.8, Delta: 0.2, Thresh: 12, Iterations: 7,
			RNG: stats.NewRNG(0xabc), Parallelism: par}
		ds := NewDNFStream(12, o)
		for _, f := range items {
			ds.ProcessDNF(f)
		}
		return ds.Estimate()
	}

	d1 := run(1)
	for _, par := range []int{2, 4, runtime.GOMAXPROCS(0)} {
		if d := run(par); d != d1 {
			t.Fatalf("parallelism %d: %v != serial %v", par, d, d1)
		}
	}
}

// requireSketchEqual compares the full per-copy state of two min sketches.
func requireSketchEqual(t *testing.T, a, b *kmv.Sketch) {
	t.Helper()
	if a.Copies() != b.Copies() {
		t.Fatalf("copy counts %d != %d", a.Copies(), b.Copies())
	}
	for i := 0; i < a.Copies(); i++ {
		_, sa := a.Copy(i)
		_, sb := b.Copy(i)
		if sa.Len() != sb.Len() {
			t.Fatalf("copy %d: %d vs %d minima", i, sa.Len(), sb.Len())
		}
		for j := range sa.Values() {
			if !sa.Values()[j].Equal(sb.Values()[j]) {
				t.Fatalf("copy %d: minima diverge at rank %d", i, j)
			}
		}
	}
}

// Batch-vs-single differential: the batch entry points must leave every
// sketch copy in the state item-at-a-time processing produces, at every
// parallelism level.
func TestSetStreamBatchVsSingle(t *testing.T) {
	rng := stats.NewRNG(97)
	items := make([]*formula.DNF, 9)
	for i := range items {
		items[i] = formula.RandomDNF(12, 3, 4, rng)
	}
	n := 12
	as := make([]*gf2.Matrix, 4)
	bs := make([]bitvec.BitVec, 4)
	for i := range as {
		as[i] = gf2.RandomMatrix(5, n, rng.Uint64)
		bs[i] = bitvec.Random(5, rng.Uint64)
	}
	for _, par := range []int{1, 2, 4, runtime.GOMAXPROCS(0)} {
		mk := func(seed uint64, p int) Options {
			return Options{Epsilon: 0.8, Delta: 0.2, Thresh: 12, Iterations: 7,
				RNG: stats.NewRNG(seed), Parallelism: p}
		}

		dSingle := NewDNFStream(n, mk(0xd, 1))
		for _, f := range items {
			dSingle.ProcessDNF(f)
		}
		dBatch := NewDNFStream(n, mk(0xd, par))
		dBatch.ProcessDNFBatch(items[:4])
		dBatch.ProcessDNFBatch(items[4:])
		requireSketchEqual(t, dSingle.sk, dBatch.sk)
		if dSingle.Estimate() != dBatch.Estimate() {
			t.Fatalf("par=%d: DNF estimates diverge", par)
		}

		aSingle := NewAffineStream(n, mk(0xa, 1))
		for i := range as {
			aSingle.ProcessAffine(as[i], bs[i])
		}
		aBatch := NewAffineStream(n, mk(0xa, par))
		aBatch.ProcessAffineBatch(as, bs)
		requireSketchEqual(t, aSingle.sk, aBatch.sk)
	}
}

// Range batches reject invalid items atomically: nothing is absorbed.
func TestRangeBatchAtomicReject(t *testing.T) {
	opts := Options{Epsilon: 0.8, Delta: 0.2, Thresh: 8, Iterations: 3, RNG: stats.NewRNG(5)}
	rs := NewRangeStream([]int{6}, opts)
	good := formula.MultiRange{Dims: []formula.Range{{Lo: 3, Hi: 17, Bits: 6}}}
	bad := formula.MultiRange{Dims: []formula.Range{{Lo: 0, Hi: 200, Bits: 6}}} // Hi exceeds 6 bits
	if err := rs.ProcessRangeBatch([]formula.MultiRange{good, bad}); err == nil {
		t.Fatal("invalid range accepted")
	}
	if rs.SketchWords() != 0 {
		t.Fatal("rejected batch left state behind")
	}
	if err := rs.ProcessRangeBatch([]formula.MultiRange{good, good}); err != nil {
		t.Fatal(err)
	}
	single := NewRangeStream([]int{6}, Options{Epsilon: 0.8, Delta: 0.2, Thresh: 8, Iterations: 3,
		RNG: stats.NewRNG(5)})
	_ = single.ProcessRange(good)
	_ = single.ProcessRange(good)
	if rs.Estimate() != single.Estimate() {
		t.Fatal("range batch estimate diverges from per-item processing")
	}
}
