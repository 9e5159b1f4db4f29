package formula

import (
	"bufio"
	"fmt"
	"io"
	"strings"
	"testing"

	"mcf0/internal/bitvec"
	"mcf0/internal/stats"
)

func TestLitEval(t *testing.T) {
	x := bitvec.FromString("10")
	if !Pos(0).Eval(x) || Pos(1).Eval(x) {
		t.Error("positive literal evaluation wrong")
	}
	if Negl(0).Eval(x) || !Negl(1).Eval(x) {
		t.Error("negative literal evaluation wrong")
	}
	if Pos(2).String() != "3" || Negl(0).String() != "-1" {
		t.Error("literal String wrong")
	}
}

func TestTermNormalize(t *testing.T) {
	tm := Term{Pos(3), Negl(1), Pos(3)}
	norm, ok := tm.Normalize()
	if !ok || len(norm) != 2 {
		t.Fatalf("Normalize = %v, ok=%v", norm, ok)
	}
	if norm[0].Var != 1 || norm[1].Var != 3 {
		t.Fatal("Normalize not sorted")
	}
	if _, ok := (Term{Pos(2), Negl(2)}).Normalize(); ok {
		t.Fatal("contradictory term normalised")
	}
}

func TestConjoin(t *testing.T) {
	a := Term{Pos(0)}
	b := Term{Negl(1)}
	c, ok := a.Conjoin(b)
	if !ok || len(c) != 2 {
		t.Fatalf("Conjoin = %v", c)
	}
	if _, ok := a.Conjoin(Term{Negl(0)}); ok {
		t.Fatal("conflicting conjoin succeeded")
	}
}

func TestDNFCNFEval(t *testing.T) {
	// φ = (x0 ∧ ¬x1) ∨ (x2)
	d := NewDNF(3)
	d.AddTerm(Term{Pos(0), Negl(1)})
	d.AddTerm(Term{Pos(2)})
	// ψ = (x0 ∨ x2) ∧ (¬x1 ∨ x2)  — same function.
	c := NewCNF(3)
	c.AddClause(Clause{Pos(0), Pos(2)})
	c.AddClause(Clause{Negl(1), Pos(2)})
	for v := uint64(0); v < 8; v++ {
		x := bitvec.FromUint64(v, 3)
		if d.Eval(x) != c.Eval(x) {
			t.Fatalf("DNF and CNF disagree at %v", x)
		}
	}
	// Empty DNF is false; empty CNF is true; empty clause/term edge cases.
	if NewDNF(2).Eval(bitvec.New(2)) {
		t.Error("empty DNF should be false")
	}
	if !NewCNF(2).Eval(bitvec.New(2)) {
		t.Error("empty CNF should be true")
	}
	dt := NewDNF(2)
	dt.AddTerm(Term{})
	if !dt.Eval(bitvec.New(2)) {
		t.Error("DNF with empty term should be true")
	}
	cf := NewCNF(2)
	cf.AddClause(Clause{})
	if cf.Eval(bitvec.New(2)) {
		t.Error("CNF with empty clause should be false")
	}
}

func countSolutions(n int, eval func(bitvec.BitVec) bool) uint64 {
	var c uint64
	for v := uint64(0); v < 1<<uint(n); v++ {
		if eval(bitvec.FromUint64(v, n)) {
			c++
		}
	}
	return c
}

func TestDIMACSRoundTrip(t *testing.T) {
	rng := stats.NewRNG(1)
	c := RandomKCNF(10, 20, 3, rng)
	var sb strings.Builder
	if err := WriteDIMACS(&sb, c); err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseDIMACS(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if parsed.N != c.N || len(parsed.Clauses) != len(c.Clauses) {
		t.Fatal("round trip changed shape")
	}
	for v := uint64(0); v < 1024; v++ {
		x := bitvec.FromUint64(v, 10)
		if parsed.Eval(x) != c.Eval(x) {
			t.Fatal("round trip changed semantics")
		}
	}
}

func TestDNFFormatRoundTrip(t *testing.T) {
	rng := stats.NewRNG(2)
	d := RandomDNF(8, 5, 3, rng)
	var sb strings.Builder
	if err := WriteDNF(&sb, d); err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseDNF(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	for v := uint64(0); v < 256; v++ {
		x := bitvec.FromUint64(v, 8)
		if parsed.Eval(x) != d.Eval(x) {
			t.Fatal("round trip changed semantics")
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",                       // no header
		"p cnf 2\n1 0",           // short header
		"1 2 0\np cnf 2 1",       // literals before header
		"p cnf 2 1\n3 0",         // out-of-range literal
		"p cnf 2 2\n1 0",         // clause count mismatch
		"p cnf 2 1\nx 0",         // bad token
		"p dnf 2 1\n1 0",         // dnf header to CNF parser
		"p cnf 2 1\np cnf 2 1\n", // duplicate header
	}
	for _, s := range bad {
		if _, err := ParseDIMACS(strings.NewReader(s)); err == nil {
			t.Errorf("ParseDIMACS accepted %q", s)
		}
	}
	if _, err := ParseDNF(strings.NewReader("p cnf 2 1\n1 0")); err == nil {
		t.Error("ParseDNF accepted cnf header")
	}
}

func TestRangeDNFExhaustive(t *testing.T) {
	for bits := 1; bits <= 6; bits++ {
		max := uint64(1)<<uint(bits) - 1
		for lo := uint64(0); lo <= max; lo++ {
			for hi := lo; hi <= max; hi++ {
				r := Range{Lo: lo, Hi: hi, Bits: bits}
				d, err := RangeDNF(r)
				if err != nil {
					t.Fatal(err)
				}
				if len(d.Terms) > 2*bits {
					t.Fatalf("[%d,%d] over %d bits: %d terms > 2n", lo, hi, bits, len(d.Terms))
				}
				for v := uint64(0); v <= max; v++ {
					x := bitvec.FromUint64(v, bits)
					want := v >= lo && v <= hi
					if d.Eval(x) != want {
						t.Fatalf("[%d,%d] bits=%d: Eval(%d) = %v, want %v", lo, hi, bits, v, d.Eval(x), want)
					}
				}
			}
		}
	}
}

func TestRangeCNFExhaustive(t *testing.T) {
	for bits := 1; bits <= 5; bits++ {
		max := uint64(1)<<uint(bits) - 1
		for lo := uint64(0); lo <= max; lo++ {
			for hi := lo; hi <= max; hi++ {
				c, err := RangeCNF(Range{Lo: lo, Hi: hi, Bits: bits})
				if err != nil {
					t.Fatal(err)
				}
				for v := uint64(0); v <= max; v++ {
					x := bitvec.FromUint64(v, bits)
					want := v >= lo && v <= hi
					if c.Eval(x) != want {
						t.Fatalf("CNF [%d,%d] bits=%d: Eval(%d) = %v, want %v", lo, hi, bits, v, c.Eval(x), want)
					}
				}
			}
		}
	}
}

func TestMultiRangeDNFAndCNF(t *testing.T) {
	rng := stats.NewRNG(3)
	for trial := 0; trial < 50; trial++ {
		d := 1 + rng.Intn(3)
		var dims []Range
		for i := 0; i < d; i++ {
			bits := 2 + rng.Intn(3)
			max := uint64(1)<<uint(bits) - 1
			lo := rng.Uint64n(max + 1)
			hi := lo + rng.Uint64n(max-lo+1)
			dims = append(dims, Range{Lo: lo, Hi: hi, Bits: bits})
		}
		mr := MultiRange{Dims: dims}
		dnf, err := MultiRangeDNF(mr)
		if err != nil {
			t.Fatal(err)
		}
		cnf, err := MultiRangeCNF(mr)
		if err != nil {
			t.Fatal(err)
		}
		total := mr.Bits()
		var want uint64 = mr.Count()
		gotDNF := countSolutions(total, dnf.Eval)
		gotCNF := countSolutions(total, cnf.Eval)
		if gotDNF != want || gotCNF != want {
			t.Fatalf("dims=%v: DNF=%d CNF=%d want=%d", dims, gotDNF, gotCNF, want)
		}
	}
}

// TestObservation1Blowup verifies the witness family of Observation 1: the
// DNF for [1, 2^n−1]^d has at least n^d terms while the CNF stays O(n·d).
func TestObservation1Blowup(t *testing.T) {
	for _, tc := range []struct{ n, d int }{{4, 1}, {4, 2}, {3, 3}} {
		var dims []Range
		for i := 0; i < tc.d; i++ {
			dims = append(dims, Range{Lo: 1, Hi: uint64(1)<<uint(tc.n) - 1, Bits: tc.n})
		}
		dnf, err := MultiRangeDNF(MultiRange{Dims: dims})
		if err != nil {
			t.Fatal(err)
		}
		cnf, err := MultiRangeCNF(MultiRange{Dims: dims})
		if err != nil {
			t.Fatal(err)
		}
		minTerms := 1
		for i := 0; i < tc.d; i++ {
			minTerms *= tc.n
		}
		if dnf.Size() < minTerms {
			t.Errorf("n=%d d=%d: DNF size %d < n^d = %d", tc.n, tc.d, dnf.Size(), minTerms)
		}
		if cnf.Size() > 2*tc.n*tc.d {
			t.Errorf("n=%d d=%d: CNF size %d > 2nd", tc.n, tc.d, cnf.Size())
		}
	}
}

func TestProgressionDNF(t *testing.T) {
	rng := stats.NewRNG(4)
	for trial := 0; trial < 100; trial++ {
		bits := 3 + rng.Intn(4)
		max := uint64(1)<<uint(bits) - 1
		a := rng.Uint64n(max + 1)
		b := a + rng.Uint64n(max-a+1)
		ls := rng.Intn(bits)
		p := Progression{A: a, B: b, LogStep: ls, Bits: bits}
		d, err := ProgressionDNF(p)
		if err != nil {
			t.Fatal(err)
		}
		step := uint64(1) << uint(ls)
		var want uint64
		for v := uint64(0); v <= max; v++ {
			inAP := v >= a && v <= b && (v-a)%step == 0
			if inAP {
				want++
			}
			x := bitvec.FromUint64(v, bits)
			if d.Eval(x) != inAP {
				t.Fatalf("AP [%d,%d,%d] bits=%d: Eval(%d) = %v, want %v", a, b, step, bits, v, d.Eval(x), inAP)
			}
		}
		if want != p.Count() {
			t.Fatalf("Count() = %d, brute = %d", p.Count(), want)
		}
	}
}

func TestMultiProgressionDNF(t *testing.T) {
	ps := []Progression{
		{A: 1, B: 13, LogStep: 2, Bits: 4}, // 1,5,9,13
		{A: 0, B: 6, LogStep: 1, Bits: 3},  // 0,2,4,6
	}
	d, err := MultiProgressionDNF(ps)
	if err != nil {
		t.Fatal(err)
	}
	got := countSolutions(7, d.Eval)
	if got != 16 {
		t.Fatalf("product AP count = %d, want 16", got)
	}
	// Spot membership: (5, 4) in, (5, 3) out.
	in := TupleToAssignment([]uint64{5, 4}, []int{4, 3})
	out := TupleToAssignment([]uint64{5, 3}, []int{4, 3})
	if !d.Eval(in) || d.Eval(out) {
		t.Fatal("membership spot checks failed")
	}
}

func TestGenerators(t *testing.T) {
	rng := stats.NewRNG(5)
	c := RandomKCNF(12, 30, 3, rng)
	if c.N != 12 || len(c.Clauses) != 30 {
		t.Fatal("RandomKCNF shape wrong")
	}
	for _, cl := range c.Clauses {
		if len(cl) != 3 {
			t.Fatal("clause width wrong")
		}
		seen := map[int]bool{}
		for _, l := range cl {
			if seen[l.Var] {
				t.Fatal("duplicate variable in clause")
			}
			seen[l.Var] = true
		}
	}
	pc, witness := PlantedKCNF(12, 40, 3, rng)
	if !pc.Eval(witness) {
		t.Fatal("planted witness does not satisfy formula")
	}
	d := RandomDNF(10, 7, 4, rng)
	if d.N != 10 || len(d.Terms) != 7 {
		t.Fatal("RandomDNF shape wrong")
	}
}

func TestSingletonDNF(t *testing.T) {
	x := bitvec.FromString("1010")
	d := SingletonDNF(x)
	if got := countSolutions(4, d.Eval); got != 1 {
		t.Fatalf("singleton DNF has %d solutions", got)
	}
	if !d.Eval(x) {
		t.Fatal("singleton DNF rejects its element")
	}
}

func TestTermFixed(t *testing.T) {
	fixed, val := TermFixed(5, Term{Pos(1), Negl(3)})
	wantFixed := []bool{false, true, false, true, false}
	for i := range wantFixed {
		if fixed[i] != wantFixed[i] {
			t.Fatalf("fixed[%d] = %v", i, fixed[i])
		}
	}
	if !val.Get(1) || val.Get(3) {
		t.Fatal("TermFixed values wrong")
	}
}

func TestOrAndCombinators(t *testing.T) {
	rng := stats.NewRNG(6)
	a := RandomDNF(6, 3, 2, rng)
	b := RandomDNF(6, 4, 2, rng)
	or := a.Or(b)
	c1 := RandomKCNF(6, 3, 2, rng)
	c2 := RandomKCNF(6, 4, 2, rng)
	and := c1.And(c2)
	for v := uint64(0); v < 64; v++ {
		x := bitvec.FromUint64(v, 6)
		if or.Eval(x) != (a.Eval(x) || b.Eval(x)) {
			t.Fatal("Or semantics wrong")
		}
		if and.Eval(x) != (c1.Eval(x) && c2.Eval(x)) {
			t.Fatal("And semantics wrong")
		}
	}
}

// WriteDIMACS serialises a CNF in DIMACS format.
func WriteDIMACS(w io.Writer, c *CNF) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "p cnf %d %d\n", c.N, len(c.Clauses))
	for _, cl := range c.Clauses {
		for _, l := range cl {
			fmt.Fprintf(bw, "%s ", l)
		}
		fmt.Fprintln(bw, "0")
	}
	return bw.Flush()
}

// WriteDNF serialises a DNF in the "p dnf" convention.
func WriteDNF(w io.Writer, d *DNF) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "p dnf %d %d\n", d.N, len(d.Terms))
	for _, t := range d.Terms {
		for _, l := range t {
			fmt.Fprintf(bw, "%s ", l)
		}
		fmt.Fprintln(bw, "0")
	}
	return bw.Flush()
}

// And returns the conjunction of c and o.
func (c *CNF) And(o *CNF) *CNF {
	if c.N != o.N {
		panic("formula: variable count mismatch")
	}
	r := NewCNF(c.N)
	r.Clauses = append(append([]Clause(nil), c.Clauses...), o.Clauses...)
	return r
}

// Count returns the number of elements.
func (p Progression) Count() uint64 {
	if p.A > p.B {
		return 0
	}
	return (p.B-p.A)>>uint(p.LogStep) + 1
}
