package delphic

import (
	"math"
	"testing"

	"mcf0/internal/bitvec"
	"mcf0/internal/formula"
	"mcf0/internal/gf2"
	"mcf0/internal/stats"
)

func TestCubeDelphicQueries(t *testing.T) {
	rng := stats.NewRNG(601)
	for trial := 0; trial < 100; trial++ {
		n := 3 + rng.Intn(6)
		w := rng.Intn(n + 1)
		var tm formula.Term
		seen := map[int]bool{}
		for len(tm) < w {
			v := rng.Intn(n)
			if seen[v] {
				continue
			}
			seen[v] = true
			tm = append(tm, formula.Lit{Var: v, Neg: rng.Bool()})
		}
		c, ok := NewCube(n, tm)
		if !ok {
			t.Fatal("consistent term rejected")
		}
		want := 0
		for v := uint64(0); v < 1<<uint(n); v++ {
			x := bitvec.FromUint64(v, n)
			if tm.Eval(x) != c.Contains(x) {
				t.Fatal("Contains disagrees with Eval")
			}
			if tm.Eval(x) {
				want++
			}
		}
		if int(c.Size()) != want {
			t.Fatalf("Size = %g, want %d", c.Size(), want)
		}
		// The element bijection must cover the set without repeats.
		elems := map[string]bool{}
		for i := uint64(0); i < uint64(c.Size()); i++ {
			x := c.Element(i)
			if !c.Contains(x) {
				t.Fatal("Element produced non-member")
			}
			if elems[x.Key()] {
				t.Fatal("Element bijection repeated a member")
			}
			elems[x.Key()] = true
		}
	}
}

func TestCubeContradiction(t *testing.T) {
	if _, ok := NewCube(4, formula.Term{formula.Pos(0), formula.Negl(0)}); ok {
		t.Fatal("contradictory term accepted")
	}
}

func TestAffineDelphicQueries(t *testing.T) {
	rng := stats.NewRNG(603)
	for trial := 0; trial < 100; trial++ {
		n := 3 + rng.Intn(5)
		rows := rng.Intn(n + 1)
		a := gf2.RandomMatrix(rows, n, rng.Uint64)
		b := bitvec.Random(rows, rng.Uint64)
		s, ok := NewAffine(a, b)
		want := 0
		for v := uint64(0); v < 1<<uint(n); v++ {
			if a.MulVec(bitvec.FromUint64(v, n)).Equal(b) {
				want++
			}
		}
		if ok != (want > 0) {
			t.Fatalf("consistency mismatch: ok=%v want=%d", ok, want)
		}
		if !ok {
			continue
		}
		if int(s.Size()) != want {
			t.Fatalf("Size = %g, want %d", s.Size(), want)
		}
		elems := map[string]bool{}
		for i := uint64(0); i < uint64(s.Size()); i++ {
			x := s.Element(i)
			if !s.Contains(x) {
				t.Fatal("Element produced non-member")
			}
			if elems[x.Key()] {
				t.Fatal("bijection repeated")
			}
			elems[x.Key()] = true
		}
	}
}

func TestMultiRangeDelphicQueries(t *testing.T) {
	mr := formula.MultiRange{Dims: []formula.Range{
		{Lo: 2, Hi: 5, Bits: 4},
		{Lo: 1, Hi: 3, Bits: 3},
	}}
	s, ok := NewMultiRangeSet(mr)
	if !ok {
		t.Fatal("valid multirange rejected")
	}
	if s.Size() != 12 {
		t.Fatalf("Size = %g, want 12", s.Size())
	}
	elems := map[string]bool{}
	for i := uint64(0); i < 12; i++ {
		x := s.Element(i)
		if !s.Contains(x) {
			t.Fatal("Element produced non-member")
		}
		elems[x.Key()] = true
	}
	if len(elems) != 12 {
		t.Fatalf("bijection hit %d of 12", len(elems))
	}
	// Membership cross-check against the DNF of the same range.
	d, err := formula.MultiRangeDNF(mr)
	if err != nil {
		t.Fatal(err)
	}
	for v := uint64(0); v < 1<<7; v++ {
		x := bitvec.FromUint64(v, 7)
		if s.Contains(x) != d.Eval(x) {
			t.Fatalf("Contains disagrees with DNF at %v", x)
		}
	}
	if _, ok := NewMultiRangeSet(formula.MultiRange{Dims: []formula.Range{{Lo: 5, Hi: 2, Bits: 4}}}); ok {
		t.Fatal("empty range accepted")
	}
}

func TestEstimatorAccuracy(t *testing.T) {
	rng := stats.NewRNG(605)
	n := 14
	var items []Set
	var evals []func(bitvec.BitVec) bool
	for i := 0; i < 12; i++ {
		w := 3 + rng.Intn(4)
		var tm formula.Term
		seen := map[int]bool{}
		for len(tm) < w {
			v := rng.Intn(n)
			if seen[v] {
				continue
			}
			seen[v] = true
			tm = append(tm, formula.Lit{Var: v, Neg: rng.Bool()})
		}
		c, _ := NewCube(n, tm)
		items = append(items, c)
		tmc := tm
		evals = append(evals, func(x bitvec.BitVec) bool { return tmc.Eval(x) })
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
	ok := 0
	const trials = 10
	for s := 0; s < trials; s++ {
		est := NewEstimator(n, 0.5, 0.2, len(items), stats.NewRNG(uint64(700+s)))
		for _, it := range items {
			est.Process(it)
		}
		if est.SampleSize() > est.Capacity() {
			t.Fatal("buffer exceeded capacity")
		}
		if stats.WithinFactor(est.Estimate(), truth, 0.5) {
			ok++
		}
	}
	if ok < trials*7/10 {
		t.Errorf("APS estimator in-band only %d/%d (truth %g)", ok, trials, truth)
	}
}

func TestEstimatorSmallUnionNearExact(t *testing.T) {
	// A union smaller than the capacity keeps p = 1, so the count is exact.
	n := 10
	est := NewEstimator(n, 0.5, 0.2, 3, stats.NewRNG(1))
	var terms []formula.Term
	var tm1 formula.Term
	for v := 0; v < 7; v++ {
		tm1 = append(tm1, formula.Pos(v))
	}
	terms = append(terms, tm1) // 8 elements
	var tm2 formula.Term
	for v := 0; v < 7; v++ {
		tm2 = append(tm2, formula.Negl(v))
	}
	terms = append(terms, tm2) // 8 elements, disjoint
	for _, tm := range terms {
		c, _ := NewCube(n, tm)
		est.Process(c)
	}
	if est.Estimate() != 16 {
		t.Fatalf("estimate %g, want exactly 16", est.Estimate())
	}
}

func TestEstimatorDeduplicatesAcrossItems(t *testing.T) {
	// Processing the same set many times must not inflate the estimate.
	n := 10
	est := NewEstimator(n, 0.5, 0.2, 20, stats.NewRNG(2))
	var tm formula.Term
	for v := 0; v < 6; v++ {
		tm = append(tm, formula.Pos(v))
	}
	c, _ := NewCube(n, tm) // 16 elements
	for i := 0; i < 20; i++ {
		est.Process(c)
	}
	if est.Estimate() != 16 {
		t.Fatalf("repeated-set estimate %g, want exactly 16", est.Estimate())
	}
}

// Cube is the Delphic set of assignments satisfying a term.
type Cube struct {
	n     int
	fixed []bool
	val   bitvec.BitVec
	free  []int // indices of free variables, ascending
}

// NewCube builds a Delphic cube from a consistent term; ok is false for
// contradictory terms.
func NewCube(n int, t formula.Term) (*Cube, bool) {
	norm, ok := t.Normalize()
	if !ok {
		return nil, false
	}
	fixed, val := formula.TermFixed(n, norm)
	c := &Cube{n: n, fixed: fixed, val: val}
	for i := 0; i < n; i++ {
		if !fixed[i] {
			c.free = append(c.free, i)
		}
	}
	return c, true
}

// Size returns 2^{#free}.
func (c *Cube) Size() float64 { return math.Pow(2, float64(len(c.free))) }

// Element maps index bits onto the free variables.
func (c *Cube) Element(i uint64) bitvec.BitVec {
	x := c.val.Clone()
	for bit, v := range c.free {
		if i&(1<<uint(bit)) != 0 {
			x.Set(v, true)
		}
	}
	return x
}

// Contains checks the fixed positions.
func (c *Cube) Contains(x bitvec.BitVec) bool {
	for i := 0; i < c.n; i++ {
		if c.fixed[i] && x.Get(i) != c.val.Get(i) {
			return false
		}
	}
	return true
}

// Affine is the Delphic set {x : Ax = b}.
type Affine struct {
	a     *gf2.Matrix
	b     bitvec.BitVec
	x0    bitvec.BitVec
	basis []bitvec.BitVec
}

// NewAffine builds a Delphic affine set; ok is false when inconsistent.
func NewAffine(a *gf2.Matrix, b bitvec.BitVec) (*Affine, bool) {
	sys := gf2.NewSystem(a.Cols())
	for i := 0; i < a.Rows(); i++ {
		sys.Add(a.Row(i), b.Get(i))
	}
	x0, ok := sys.Solve()
	if !ok {
		return nil, false
	}
	return &Affine{a: a, b: b, x0: x0, basis: sys.NullBasis()}, true
}

// Size returns 2^{null dimension}.
func (s *Affine) Size() float64 { return math.Pow(2, float64(len(s.basis))) }

// Element maps index bits onto null-space coordinates.
func (s *Affine) Element(i uint64) bitvec.BitVec {
	x := s.x0.Clone()
	for bit, nb := range s.basis {
		if i&(1<<uint(bit)) != 0 {
			x.XorInPlace(nb)
		}
	}
	return x
}

// Contains verifies Ax = b.
func (s *Affine) Contains(x bitvec.BitVec) bool { return s.a.MulVec(x).Equal(s.b) }

// Capacity returns the sample-buffer bound (the space knob).
func (e *Estimator) Capacity() int { return e.cap }

// SampleSize returns the current buffer occupancy (for space accounting).
func (e *Estimator) SampleSize() int { return len(e.sample) }
