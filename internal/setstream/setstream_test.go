package setstream

import (
	"testing"

	"mcf0/internal/bitvec"
	"mcf0/internal/exact"
	"mcf0/internal/formula"
	"mcf0/internal/gf2"
	"mcf0/internal/hash"
	"mcf0/internal/kmv"
	"mcf0/internal/stats"
)

func testOpts(seed uint64) Options {
	return Options{Epsilon: 0.8, Delta: 0.2, Thresh: 32, Iterations: 9, RNG: stats.NewRNG(seed)}
}

// unionCount computes |∪ᵢ Sol(φᵢ)| exhaustively.
func unionCount(n int, evals []func(bitvec.BitVec) bool) float64 {
	count := 0
	for v := uint64(0); v < 1<<uint(n); v++ {
		x := bitvec.FromUint64(v, n)
		for _, e := range evals {
			if e(x) {
				count++
				break
			}
		}
	}
	return float64(count)
}

func TestDNFStreamAccuracy(t *testing.T) {
	rng := stats.NewRNG(61)
	n := 14
	var items []*formula.DNF
	var evals []func(bitvec.BitVec) bool
	for i := 0; i < 12; i++ {
		d := formula.RandomDNF(n, 3, 5, rng)
		items = append(items, d)
		evals = append(evals, d.Eval)
	}
	truth := unionCount(n, evals)
	ok := 0
	const trials = 10
	for s := 0; s < trials; s++ {
		ds := NewDNFStream(n, testOpts(uint64(500+s)))
		for _, d := range items {
			ds.ProcessDNF(d)
		}
		if stats.WithinFactor(ds.Estimate(), truth, 0.8) {
			ok++
		}
	}
	if ok < trials*7/10 {
		t.Errorf("DNF stream within band only %d/%d (truth %g)", ok, trials, truth)
	}
}

func TestDNFStreamMatchesElementStream(t *testing.T) {
	// Feeding singleton DNFs must behave exactly like an element stream:
	// small distinct counts are reported exactly.
	n := 12
	ds := NewDNFStream(n, testOpts(3))
	rng := stats.NewRNG(62)
	seen := map[uint64]bool{}
	for len(seen) < 20 {
		v := rng.Uint64n(1 << uint(n))
		seen[v] = true
		ds.ProcessElement(bitvec.FromUint64(v, n))
	}
	if ds.Estimate() != 20 {
		t.Errorf("singleton stream estimate %g, want exactly 20", ds.Estimate())
	}
}

func TestRangeStreamExactSmallUnions(t *testing.T) {
	// Unions smaller than Thresh are counted exactly by the KMV sketch.
	rs := NewRangeStream([]int{6}, testOpts(5))
	mustRange := func(lo, hi uint64) {
		t.Helper()
		if err := rs.ProcessRange(formula.MultiRange{Dims: []formula.Range{{Lo: lo, Hi: hi, Bits: 6}}}); err != nil {
			t.Fatal(err)
		}
	}
	mustRange(3, 10) // 8 values
	mustRange(8, 15) // overlap: adds 5
	mustRange(40, 45)
	if got := rs.Estimate(); got != 19 {
		t.Errorf("range union = %g, want exactly 19", got)
	}
}

func TestRangeStreamAccuracy2D(t *testing.T) {
	rng := stats.NewRNG(63)
	bits := []int{7, 7}
	var boxes []formula.MultiRange
	var evals []func(bitvec.BitVec) bool
	for i := 0; i < 10; i++ {
		var dims []formula.Range
		for _, b := range bits {
			maxV := uint64(1)<<uint(b) - 1
			lo := rng.Uint64n(maxV + 1)
			hi := lo + rng.Uint64n(maxV-lo+1)
			dims = append(dims, formula.Range{Lo: lo, Hi: hi, Bits: b})
		}
		mr := formula.MultiRange{Dims: dims}
		boxes = append(boxes, mr)
		d, err := formula.MultiRangeDNF(mr)
		if err != nil {
			t.Fatal(err)
		}
		evals = append(evals, d.Eval)
	}
	truth := unionCount(14, evals)
	ok := 0
	const trials = 8
	for s := 0; s < trials; s++ {
		rs := NewRangeStream(bits, testOpts(uint64(700+s)))
		for _, b := range boxes {
			if err := rs.ProcessRange(b); err != nil {
				t.Fatal(err)
			}
		}
		if stats.WithinFactor(rs.Estimate(), truth, 0.8) {
			ok++
		}
	}
	if ok < trials*3/4 {
		t.Errorf("2D range stream within band only %d/%d (truth %g)", ok, trials, truth)
	}
}

func TestProgressionStreamExact(t *testing.T) {
	ps := NewProgressionStream([]int{6}, testOpts(9))
	// 4, 6, 8, 10 and 5, 9, 13: disjoint, 7 elements total.
	if err := ps.ProcessProgression([]formula.Progression{{A: 4, B: 10, LogStep: 1, Bits: 6}}); err != nil {
		t.Fatal(err)
	}
	if err := ps.ProcessProgression([]formula.Progression{{A: 5, B: 13, LogStep: 2, Bits: 6}}); err != nil {
		t.Fatal(err)
	}
	if got := ps.Estimate(); got != 7 {
		t.Errorf("progression union = %g, want exactly 7", got)
	}
}

func TestAffineFindMinMatchesBruteForce(t *testing.T) {
	rng := stats.NewRNG(64)
	for trial := 0; trial < 50; trial++ {
		n := 4 + rng.Intn(4)
		rows := rng.Intn(n + 1)
		a := gf2.RandomMatrix(rows, n, rng.Uint64)
		b := bitvec.Random(rows, rng.Uint64)
		hm := gf2.RandomMatrix(3*n, n, rng.Uint64)
		hb := bitvec.Random(3*n, rng.Uint64)
		h := hash.NewLinear(hm, hb)
		tWant := 1 + rng.Intn(8)
		// Brute force.
		seen := map[string]bitvec.BitVec{}
		for v := uint64(0); v < 1<<uint(n); v++ {
			x := bitvec.FromUint64(v, n)
			if a.MulVec(x).Equal(b) {
				y := bitvec.New(h.OutBits())
				h.EvalInto(x, y)
				seen[y.Key()] = y
			}
		}
		var want []bitvec.BitVec
		for _, y := range seen {
			want = append(want, y)
		}
		sortVecs(want)
		if len(want) > tWant {
			want = want[:tWant]
		}
		set := kmv.New(3*n, tWant)
		AffineFindMin(a, b, h, set)
		got := set.Values()
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %d mins, want %d", trial, len(got), len(want))
		}
		for i := range got {
			if !got[i].Equal(want[i]) {
				t.Fatalf("trial %d: min[%d] mismatch", trial, i)
			}
		}
	}
}

func TestAffineStreamAccuracy(t *testing.T) {
	rng := stats.NewRNG(65)
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
	truth := unionCount(n, evals)
	if truth == 0 {
		t.Skip("degenerate: all affine systems inconsistent")
	}
	ok := 0
	const trials = 8
	for s := 0; s < trials; s++ {
		as := NewAffineStream(n, testOpts(uint64(900+s)))
		for _, it := range items {
			as.ProcessAffine(it.a, it.b)
		}
		if stats.WithinFactor(as.Estimate(), truth, 0.8) {
			ok++
		}
	}
	if ok < trials*3/4 {
		t.Errorf("affine stream within band only %d/%d (truth %g)", ok, trials, truth)
	}
}

func TestWeightedCountMatchesExact(t *testing.T) {
	rng := stats.NewRNG(66)
	okAll := true
	for trial := 0; trial < 5; trial++ {
		n := 4
		d := formula.RandomDNF(n, 3, 2, rng)
		w := exact.WeightFunc{Num: make([]uint64, n), Bits: make([]int, n)}
		for i := 0; i < n; i++ {
			w.Bits[i] = 2 + rng.Intn(2)
			w.Num[i] = 1 + rng.Uint64n(uint64(1)<<uint(w.Bits[i])-1)
		}
		truth := exact.WeightedCountDNF(d, w)
		ok := 0
		const trials = 6
		for s := 0; s < trials; s++ {
			got := WeightedCount(WeightedDNF{D: d, W: w}, testOpts(uint64(1100+trial*100+s)))
			if stats.WithinFactor(got, truth, 0.8) {
				ok++
			}
		}
		if ok < trials/2 {
			t.Logf("trial %d: weighted count in band %d/%d (truth %g)", trial, ok, trials, truth)
			okAll = false
		}
	}
	if !okAll {
		t.Error("weighted counting accuracy too low across formulas")
	}
}

// TestWeightedTermBox checks the reduction geometry: the box of a term has
// measure W(term)·2^Σm.
func TestWeightedTermBox(t *testing.T) {
	n := 3
	d := formula.NewDNF(n)
	term := formula.Term{formula.Pos(0), formula.Negl(2)}
	d.AddTerm(term)
	w := exact.WeightFunc{Num: []uint64{3, 1, 2}, Bits: []int{3, 2, 3}}
	wd := WeightedDNF{D: d, W: w}
	box, ok := wd.TermBox(term)
	if !ok {
		t.Fatal("consistent term rejected")
	}
	// ρ0 = 3/8 fixed true → 3 values; x1 free → 4 values; ρ2 = 2/8 fixed
	// false → 6 values. Total 3·4·6 = 72 = (3/8)(1)(6/8)·2^8.
	if got := box.Count(); got != 72 {
		t.Fatalf("box measure %d, want 72", got)
	}
	contra := formula.Term{formula.Pos(0), formula.Negl(0)}
	if _, ok := wd.TermBox(contra); ok {
		t.Error("contradictory term produced a box")
	}
}

func TestSketchSpaceBounded(t *testing.T) {
	opts := testOpts(13)
	n := 24
	ds := NewDNFStream(n, opts)
	rng := stats.NewRNG(67)
	for i := 0; i < 20; i++ {
		ds.ProcessDNF(formula.RandomDNF(n, 4, 3, rng)) // huge sets
	}
	bound := opts.Thresh * opts.Iterations * ((3*n + 63) / 64)
	if ds.SketchWords() > bound {
		t.Errorf("sketch %d words exceeds bound %d", ds.SketchWords(), bound)
	}
}

func sortVecs(vs []bitvec.BitVec) {
	for i := 1; i < len(vs); i++ {
		for j := i; j > 0 && vs[j].Less(vs[j-1]); j-- {
			vs[j], vs[j-1] = vs[j-1], vs[j]
		}
	}
}

// SketchWords reports sketch memory in 64-bit words (hash functions
// excluded), for the space experiments of Theorems 5–7.
func (s *stream) SketchWords() int { return s.sk.Words() }

// ProcessElement absorbs a single universe element (the classic streaming
// model embeds into DNF streams via singleton formulas).
func (d *DNFStream) ProcessElement(x bitvec.BitVec) {
	d.ProcessDNF(formula.SingletonDNF(x))
}

// ProcessProgressionBatch absorbs a chunk of d-dimensional progressions
// with a single pool dispatch; on any invalid item the whole batch is
// rejected and the sketch is unchanged.
func (p *ProgressionStream) ProcessProgressionBatch(items [][]formula.Progression) error {
	ds := make([]*formula.DNF, len(items))
	for k, ps := range items {
		p.checkDims(func(i int) int { return ps[i].Bits }, len(ps))
		d, err := formula.MultiProgressionDNF(ps)
		if err != nil {
			return err
		}
		ds[k] = d
	}
	p.processDNFBatch(ds)
	return nil
}

// TestZeroOptionsShape checks that a set stream built at zero options has
// exactly the shape params resolves.
func TestZeroOptionsShape(t *testing.T) {
	want := Options{}.Resolve(0)
	s := NewDNFStream(8, Options{}).sk
	if s.Thresh() != want.Thresh || s.Copies() != want.Iterations {
		t.Errorf("DNF stream: %d copies of Thresh %d, want %d of %d",
			s.Copies(), s.Thresh(), want.Iterations, want.Thresh)
	}
}
