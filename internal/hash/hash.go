// Package hash implements the hash function families used throughout the
// paper: the 2-wise independent Toeplitz family H_Toeplitz(n, m), the 2-wise
// independent random-matrix family H_xor(n, m), and the s-wise independent
// polynomial family H_{s-wise}(n, n) over GF(2^n).
//
// Linear families expose their matrix form h(x) = Ax + b so that
// model-counting algorithms can turn "h_m(x) = 0^m" into XOR constraints,
// and the m-th prefix slice h_m (the first m output bits) is available as
// required by the prefix-slicing construction of Section 2 of the paper.
package hash

import (
	"slices"

	"mcf0/internal/bitvec"
	"mcf0/internal/gf2"
	"mcf0/internal/gf2poly"
)

// Func is a hash function h : {0,1}^n → {0,1}^m.
//
// EvalInto writes h(x) into a caller-owned output vector without
// allocating, under package bitvec's destination-passing rules: dst must
// have width OutBits(), is fully overwritten, must not alias x, and is
// never retained by the hash — enumeration loops allocate it once and
// reuse it per evaluation.
type Func interface {
	EvalInto(x, dst bitvec.BitVec)
	InBits() int
	OutBits() int
}

// Uint64Hash is implemented by hash functions over universes of at most 64
// bits that evaluate integer-form inputs directly: EvalUint64(x) returns
// the integer whose OutBits()-bit binary representation (MSB first) is
// the vector EvalInto writes for bitvec.FromUint64(x, InBits()). In
// particular the string trailing-zero count of the output vector is the
// binary trailing-zero count of the returned integer (OutBits() for
// zero), which lets the Estimation sketches run without touching bit
// vectors at all.
type Uint64Hash interface {
	EvalUint64(x uint64) uint64
}

// Family is a distribution over hash functions; Draw samples one using next
// as the entropy source.
type Family interface {
	Draw(next func() uint64) Func
	InBits() int
	OutBits() int
	// Name identifies the family in benchmarks and logs.
	Name() string
}

// Linear is a hash function of the form h(x) = Ax + b over GF(2).
//
// Toeplitz draws hold only b and a packed-diagonal carry-less-multiply
// kernel (see toeplitz.go); their matrix A is built on the first row read
// (A, ZeroPrefixSystem and friends) and published once. Other draws hold
// A from the start. Linears are immutable and safe for concurrent use.
type Linear struct {
	// a is the matrix form of a draw without a kernel; nil when toep is set.
	a *gf2.Matrix
	B bitvec.BitVec
	// toep, when non-nil, evaluates Ax as a GF(2) polynomial multiply
	// against the packed Toeplitz diagonal instead of per-row dot products.
	toep *toepKernel
}

// NewLinear wraps a matrix and offset as a hash function.
func NewLinear(a *gf2.Matrix, b bitvec.BitVec) *Linear {
	if b.Len() != a.Rows() {
		panic("hash: offset width must equal row count")
	}
	return &Linear{a: a, B: b}
}

// A returns the matrix form of h. For a Toeplitz draw it is built on the
// first call and shared by every later one; callers must not mutate it.
func (l *Linear) A() *gf2.Matrix {
	if l.toep != nil {
		return l.toep.matrix()
	}
	return l.a
}

// EvalInto computes Ax + b into dst (caller-owned, width OutBits()),
// allocation-free. Toeplitz draws take the carry-less-multiply kernel —
// O(n/64) word multiplies instead of m per-row dot products — and other
// families the row sweep; both realize the identical function.
func (l *Linear) EvalInto(x, dst bitvec.BitVec) {
	if l.toep != nil {
		l.toep.evalInto(x, dst, l.B)
		return
	}
	l.a.MulVecInto(x, dst)
	dst.XorInPlace(l.B)
}

// Equal reports whether l and o are the same draw: the same pointer (the
// Clone fast path), the same packed diagonal and b when both carry a
// kernel, or otherwise structurally equal A and b. Sketch merges use it
// as their shared-draw precondition, so it holds across the wire too. A
// nil Linear equals only nil.
func (l *Linear) Equal(o *Linear) bool {
	if l == o {
		return true
	}
	if l == nil || o == nil {
		return false
	}
	if l.InBits() != o.InBits() || l.OutBits() != o.OutBits() || !l.B.Equal(o.B) {
		return false
	}
	if l.toep != nil && o.toep != nil {
		return slices.Equal(l.toep.dr, o.toep.dr)
	}
	return l.A().Equal(o.A())
}

// InBits returns n.
func (l *Linear) InBits() int {
	if l.toep != nil {
		return l.toep.n
	}
	return l.a.Cols()
}

// OutBits returns m, the width of b.
func (l *Linear) OutBits() int { return l.B.Len() }

// PrefixIsZero reports whether the first m bits of h(x) are all zero,
// without materialising the full output.
func (l *Linear) PrefixIsZero(x bitvec.BitVec, m int) bool { return l.rowPrefixLen(x, m) == m }

// rowPrefixLen returns the first i < m with output bit i of h(x) set, or
// m, testing rows in order.
func (l *Linear) rowPrefixLen(x bitvec.BitVec, m int) int {
	a := l.A()
	for i := 0; i < m; i++ {
		if a.Row(i).Dot(x) != l.B.Get(i) {
			return i
		}
	}
	return m
}

// ZeroPrefixLen returns the length of the all-zero prefix of h(x): the
// largest m with PrefixIsZero(x, m). Toeplitz draws with a carry-less
// kernel evaluate h(x) into scratch (caller-owned, width OutBits) with
// EvalInto; other draws test rows in order and stop at the first nonzero
// output bit, about two row products for an x that h maps uniformly.
func (l *Linear) ZeroPrefixLen(x, scratch bitvec.BitVec) int {
	if l.toep != nil {
		l.toep.evalInto(x, scratch, l.B)
		if i := scratch.FirstSet(); i >= 0 {
			return i
		}
		return l.toep.m
	}
	return l.rowPrefixLen(x, l.a.Rows())
}

// ZeroPrefixSystem returns the linear system over x expressing
// h_m(x) = 0^m, i.e. A_m·x = b_m. Model counters conjoin this with φ.
func (l *Linear) ZeroPrefixSystem(m int) *gf2.System { return l.rowSystem(0, m, nil) }

// PrefixEqualSystem returns the linear system expressing h_m(x) = target,
// the random-cell generalisation of ZeroPrefixSystem used by the sampler.
func (l *Linear) PrefixEqualSystem(m int, target bitvec.BitVec) *gf2.System {
	if target.Len() != m {
		panic("hash: target width must equal prefix length")
	}
	return l.rowSystem(0, m, target.Get)
}

// SuffixZeroSystem returns the linear system over x expressing "the last t
// output bits of h(x) are zero", i.e. TrailZero(h(x)) ≥ t. For linear
// hashes the trailing-zero predicate of the Estimation/Flajolet–Martin
// algorithms is itself a set of XOR constraints.
func (l *Linear) SuffixZeroSystem(t int) *gf2.System {
	m := l.OutBits()
	if t > m {
		panic("hash: suffix longer than output")
	}
	return l.rowSystem(m-t, m, nil)
}

// rowSystem returns the system "output bit i of h(x) is want(i−lo)" over
// the rows lo ≤ i < hi; a nil want asks for zeros.
func (l *Linear) rowSystem(lo, hi int, want func(int) bool) *gf2.System {
	sys := gf2.NewSystem(l.InBits())
	if lo == hi {
		return sys // no row read: a Toeplitz draw keeps its matrix unbuilt
	}
	a := l.A()
	for i := lo; i < hi; i++ {
		sys.Add(a.Row(i), l.B.Get(i) != (want != nil && want(i-lo)))
	}
	return sys
}

// Toeplitz is the family H_Toeplitz(n, m): h(x) = Ax + b with A a uniformly
// random Toeplitz matrix (constant along diagonals, m+n−1 random bits) and
// b uniform. 2-wise independent; representable in Θ(n+m) bits.
type Toeplitz struct{ n, m int }

// NewToeplitz returns the Toeplitz family mapping n bits to m bits.
func NewToeplitz(n, m int) Toeplitz { return Toeplitz{n: n, m: m} }

// Draw samples a function. Row i is the length-n window of the random
// diagonal string starting at offset m-1-i, so A[i][j] = diag[m-1-i+j] —
// constant along diagonals, and a bijection between diagonal strings and
// Toeplitz matrices. The diagonal's words come from next first, then
// b's. The draw keeps the diagonal in packed form and builds rows on
// first use. A draw with a carry-less kernel (see toeplitz.go) costs two
// allocations: one word slab for the diagonal, b and the reversed
// diagonal, and one object for the Linear and its kernel. Wider draws
// build their matrix at once.
func (t Toeplitz) Draw(next func() uint64) Func {
	n, m := t.n, t.m
	if !kernelFits(n, m) {
		diag := bitvec.Random(n+m-1, next)
		return NewLinear(toeplitzMatrix(n, m, diag), bitvec.Random(m, next))
	}
	wd, wb := (n+m-1+63)/64, (m+63)/64
	w := make([]uint64, 2*wd+wb)
	diag := bitvec.View(n+m-1, w[:wd:wd])
	b := bitvec.View(m, w[wd:wd+wb:wd+wb])
	dr := bitvec.View(n+m-1, w[wd+wb:])
	diag.FillRandom(next)
	b.FillRandom(next)
	diag.ReverseInto(dr)
	return newKernelLinear(n, m, dr.Words(), b)
}

// InBits returns n.
func (t Toeplitz) InBits() int { return t.n }

// OutBits returns m.
func (t Toeplitz) OutBits() int { return t.m }

// Name returns "toeplitz".
func (t Toeplitz) Name() string { return "toeplitz" }

// Xor is the family H_xor(n, m): h(x) = Ax + b with every entry of A and b
// uniform and independent. 2-wise independent; Θ(n·m) bits of
// representation.
type Xor struct{ n, m int }

// NewXor returns the random-matrix family mapping n bits to m bits.
func NewXor(n, m int) Xor { return Xor{n: n, m: m} }

// Draw samples a function.
func (x Xor) Draw(next func() uint64) Func {
	a := gf2.RandomMatrix(x.m, x.n, next)
	return NewLinear(a, bitvec.Random(x.m, next))
}

// InBits returns n.
func (x Xor) InBits() int { return x.n }

// OutBits returns m.
func (x Xor) OutBits() int { return x.m }

// Name returns "xor".
func (x Xor) Name() string { return "xor" }

// Sparse is the sparse-XOR family of the paper's §6 "Sparse XORs"
// direction: h(x) = Ax + b where each entry of A is 1 independently with
// probability Density (dense families use 1/2). Sparse rows make the XOR
// constraints conjoined with φ much cheaper for SAT solvers, at the price
// of losing exact pairwise independence — the Meel–Akshay line of work
// shows density Θ(log m / m) suffices for counting; this implementation
// exposes the knob for the A4 ablation.
type Sparse struct {
	n, m    int
	density float64
}

// NewSparse returns the sparse family mapping n bits to m bits with the
// given row density in (0, 1].
func NewSparse(n, m int, density float64) Sparse {
	if density <= 0 || density > 1 {
		panic("hash: sparse density must be in (0, 1]")
	}
	return Sparse{n: n, m: m, density: density}
}

// Draw samples a function. Rows that come out empty are redrawn once with
// a single random entry so no output bit is constant.
func (s Sparse) Draw(next func() uint64) Func {
	a := gf2.NewMatrix(s.m, s.n)
	// Threshold for "bit set" on a uniform 64-bit draw.
	limit := uint64(s.density * float64(^uint64(0)))
	for i := 0; i < s.m; i++ {
		row := a.Row(i)
		for j := 0; j < s.n; j++ {
			if next() <= limit {
				row.Set(j, true)
			}
		}
		if row.IsZero() {
			row.Set(int(next()%uint64(s.n)), true)
		}
	}
	return NewLinear(a, bitvec.Random(s.m, next))
}

// InBits returns n.
func (s Sparse) InBits() int { return s.n }

// OutBits returns m.
func (s Sparse) OutBits() int { return s.m }

// Name returns "sparse".
func (s Sparse) Name() string { return "sparse" }

// Poly is the s-wise independent family H_{s-wise}(n, n): a uniformly
// random polynomial of degree < s over GF(2^n), evaluated at the input
// interpreted as a field element. Requires n ≤ 64.
type Poly struct {
	n, s  int
	field *gf2poly.Field
}

// NewPoly returns the s-wise independent polynomial family over GF(2^n).
func NewPoly(n, s int) Poly {
	if n > 64 {
		panic("hash: polynomial family requires n ≤ 64")
	}
	if s < 1 {
		panic("hash: independence must be ≥ 1")
	}
	return Poly{n: n, s: s, field: gf2poly.NewField(n)}
}

// Draw samples a function.
func (p Poly) Draw(next func() uint64) Func { return p.DrawN(1, next)[0] }

// DrawN returns the k functions k Draw calls would return from next, as
// views into one coefficient slab filled by Fill and one slab of function
// values: three allocations, whatever k.
func (p Poly) DrawN(k int, next func() uint64) []Func {
	coeffs := make([]uint64, k*p.s)
	p.Fill(coeffs, next)
	fs := make([]polyFunc, k)
	out := make([]Func, k)
	for i := range fs {
		fs[i] = polyFunc{n: p.n, field: p.field, coeffs: coeffs[i*p.s : (i+1)*p.s : (i+1)*p.s]}
		out[i] = &fs[i]
	}
	return out
}

// Fill draws coeffs word by word, one next() each masked to n bits: a
// slab of k·s words receives, in order, the coefficient vectors k Draw
// calls would take from next.
func (p Poly) Fill(coeffs []uint64, next func() uint64) {
	mask := ^uint64(0) >> (64 - uint(p.n))
	for i := range coeffs {
		coeffs[i] = next() & mask
	}
}

// InBits returns n.
func (p Poly) InBits() int { return p.n }

// OutBits returns n.
func (p Poly) OutBits() int { return p.n }

// Name returns "poly".
func (p Poly) Name() string { return "poly" }

type polyFunc struct {
	n      int
	field  *gf2poly.Field
	coeffs []uint64
}

// EvalInto evaluates the polynomial into dst without allocating.
func (f *polyFunc) EvalInto(x, dst bitvec.BitVec) {
	if x.Len() != f.n {
		panic("hash: input width mismatch")
	}
	dst.SetUint64(f.EvalUint64(x.Uint64()))
}

// EvalUint64 evaluates the polynomial on an integer-form input; see
// Uint64Hash for the output convention.
func (f *polyFunc) EvalUint64(x uint64) uint64 {
	return f.field.EvalPoly(f.coeffs, x)
}

func (f *polyFunc) InBits() int  { return f.n }
func (f *polyFunc) OutBits() int { return f.n }

// PolyCoefficients extracts the coefficient vector (coeffs[i] multiplies
// x^i) from a function drawn from a Poly family, and reports whether f is
// such a function; callers must not mutate the slice.
func PolyCoefficients(f Func) ([]uint64, bool) {
	pf, ok := f.(*polyFunc)
	if !ok {
		return nil, false
	}
	return pf.coeffs, true
}
