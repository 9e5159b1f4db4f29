// Package gf2poly implements arithmetic in the finite fields GF(2^m) for
// 1 ≤ m ≤ 64. Field elements are uint64 values whose bit i is the
// coefficient of x^i. The package finds its own irreducible modulus per
// degree via Rabin's irreducibility test, so correctness does not depend on
// a hard-coded polynomial table.
//
// The s-wise independent hash family of the paper (H_{s-wise}(n, n)) is a
// random degree-(s-1) polynomial over GF(2^n); package hash builds it on
// top of this package.
package gf2poly

import (
	"math/bits"
	"sync"
)

// poly128 is a polynomial over GF(2) of degree at most 127; bit i of the
// 128-bit value (lo = bits 0..63) is the coefficient of x^i.
type poly128 struct{ hi, lo uint64 }

func (p poly128) isZero() bool { return p.hi == 0 && p.lo == 0 }

func (p poly128) degree() int {
	if p.hi != 0 {
		return 127 - bits.LeadingZeros64(p.hi)
	}
	if p.lo != 0 {
		return 63 - bits.LeadingZeros64(p.lo)
	}
	return -1 // zero polynomial
}

func (p poly128) xor(q poly128) poly128 { return poly128{p.hi ^ q.hi, p.lo ^ q.lo} }

func (p poly128) shl(k int) poly128 {
	switch {
	case k == 0:
		return p
	case k < 64:
		return poly128{p.hi<<uint(k) | p.lo>>uint(64-k), p.lo << uint(k)}
	case k < 128:
		return poly128{p.lo << uint(k-64), 0}
	default:
		return poly128{}
	}
}

// clmul returns the carry-less (GF(2)) product of two 64-bit polynomials,
// via the public word kernel (see clmul.go).
func clmul(a, b uint64) poly128 {
	hi, lo := Clmul64(a, b)
	return poly128{hi: hi, lo: lo}
}

// mod reduces p modulo f (degree df ≥ 1), returning a polynomial of degree
// < df. f must have its degree-df bit set.
func mod(p, f poly128, df int) poly128 {
	for {
		d := p.degree()
		if d < df {
			return p
		}
		p = p.xor(f.shl(d - df))
	}
}

// gcd returns the polynomial GCD of a and b.
func gcd(a, b poly128) poly128 {
	for !b.isZero() {
		a, b = b, mod(a, b, b.degree())
	}
	return a
}

// mulMod returns a·b mod f where deg a, deg b < df ≤ 64.
func mulMod(a, b uint64, f poly128, df int) uint64 {
	return mod(clmul(a, b), f, df).lo
}

// frobenius returns x^(2^k) mod f starting from element e = x, by repeated
// squaring k times.
func frobenius(e uint64, k int, f poly128, df int) uint64 {
	for i := 0; i < k; i++ {
		e = mulMod(e, e, f, df)
	}
	return e
}

// isIrreducible implements Rabin's test for a degree-m polynomial f over
// GF(2): f is irreducible iff x^(2^m) ≡ x (mod f) and for every prime p
// dividing m, gcd(x^(2^(m/p)) − x mod f, f) = 1.
func isIrreducible(f poly128, m int) bool {
	const x = 2 // the polynomial "x"
	if m == 1 {
		return true // x+1 and x are the only candidates; we only pass x+1
	}
	if f.lo&1 == 0 {
		return false // divisible by x
	}
	e := frobenius(x, m, f, m)
	if e != x {
		return false
	}
	for _, p := range primeFactors(m) {
		g := frobenius(x, m/p, f, m) ^ x
		// Coprime iff the gcd is the constant 1 (degree 0). A zero g means
		// f divides x^(2^(m/p))−x, so gcd = f (degree m) and f is reducible.
		if gcd(poly128{lo: g}, f).degree() != 0 {
			return false
		}
	}
	return true
}

func primeFactors(n int) []int {
	var ps []int
	for p := 2; p*p <= n; p++ {
		if n%p == 0 {
			ps = append(ps, p)
			for n%p == 0 {
				n /= p
			}
		}
	}
	if n > 1 {
		ps = append(ps, n)
	}
	return ps
}

// findIrreducible returns the lexicographically smallest irreducible
// polynomial of degree m over GF(2) (as x^m + low bits).
func findIrreducible(m int) poly128 {
	xm := poly128{lo: 1}.shl(m) // x^m
	// The constant term must be 1 for any irreducible polynomial of
	// degree ≥ 1 other than x itself. Irreducible polynomials are dense
	// (about 1/m of all degree-m polynomials), so this loop is short.
	for low := uint64(1); ; low += 2 {
		f := xm.xor(poly128{lo: low})
		if isIrreducible(f, m) {
			return f
		}
	}
}

// polyDivQuot returns the quotient of p / f over GF(2), where f has degree
// df ≥ 1 and the quotient degree is at most 63 (all uses here divide by the
// field modulus, whose quotients fit a word).
func polyDivQuot(p, f poly128, df int) uint64 {
	var q uint64
	for {
		d := p.degree()
		if d < df {
			return q
		}
		q |= 1 << uint(d-df)
		p = p.xor(f.shl(d - df))
	}
}

// Field is the finite field GF(2^m), 1 ≤ m ≤ 64.
//
// Multiplication reduces with a precomputed Barrett constant: two carry-less
// multiplies replace the bit-at-a-time modulus subtraction loop (see
// Field.reduce).
type Field struct {
	m int
	f poly128
	// fLow is f with its leading x^m term stripped (the low coefficients);
	// muLow is µ = ⌊x^(2m)/f⌋ with its leading x^m term stripped. Both fit
	// a word for every m ≤ 64 and are what the Barrett fold consumes.
	fLow  uint64
	muLow uint64
}

var (
	fieldMu    sync.Mutex
	fieldCache = map[int]*Field{}
)

// NewField returns the field GF(2^m). Fields are cached; the returned value
// is shared and safe for concurrent use.
func NewField(m int) *Field {
	if m < 1 || m > 64 {
		panic("gf2poly: field degree must be in [1, 64]")
	}
	fieldMu.Lock()
	defer fieldMu.Unlock()
	if f, ok := fieldCache[m]; ok {
		return f
	}
	f := &Field{m: m, f: findIrreducible(m)}
	// Strip the leading term: for m < 64 it lives in f.lo, for m = 64 in
	// f.hi (bit 0), so f.lo is already the low part.
	f.fLow = f.f.lo
	if m < 64 {
		f.fLow &^= 1 << uint(m)
	}
	// Barrett constant: µ = ⌊x^(2m)/f⌋ = x^m ⊕ ⌊fLow·x^m / f⌋, because
	// x^(2m) = f·x^m ⊕ fLow·x^m. The second form keeps the dividend inside
	// 128 bits even at m = 64.
	f.muLow = polyDivQuot(poly128{lo: f.fLow}.shl(m), f.f, m)
	fieldCache[m] = f
	return f
}

// mask returns the valid-bits mask for field elements.
func (fd *Field) mask() uint64 {
	if fd.m == 64 {
		return ^uint64(0)
	}
	return (1 << uint(fd.m)) - 1
}

// Add returns a+b (XOR).
func (fd *Field) Add(a, b uint64) uint64 { return (a ^ b) & fd.mask() }

// Mul returns the field product a·b.
func (fd *Field) Mul(a, b uint64) uint64 {
	hi, lo := Clmul64(a&fd.mask(), b&fd.mask())
	return fd.reduce(hi, lo)
}

// reduce maps the 127-bit carry-less product hi·x^64 ⊕ lo (degree ≤ 2m−2)
// into the field by a Barrett fold against the cached µ = ⌊x^(2m)/f⌋:
//
//	H := ⌊P/x^m⌋                       (the high part of the product)
//	q := H ⊕ ⌊H·µLow / x^m⌋            (= ⌊H·µ/x^m⌋ = ⌊P/f⌋, exactly —
//	                                    over GF(2) the Barrett quotient
//	                                    has no error term for deg P < 2m)
//	r := P ⊕ q·f  =  low_m(P) ⊕ low_m(q·fLow)
//
// Two Clmul64 calls replace the former bit-at-a-time modulus subtraction
// (up to ~63 iterations); the exact-quotient identity is differential-
// tested against the shift-XOR reference at every degree.
func (fd *Field) reduce(hi, lo uint64) uint64 {
	m := uint(fd.m)
	var h uint64
	if m == 64 {
		h = hi
	} else {
		h = lo>>m | hi<<(64-m)
	}
	th, tl := Clmul64(h, fd.muLow)
	q := h
	if m == 64 {
		q ^= th
	} else {
		q ^= tl>>m | th<<(64-m)
	}
	_, ql := Clmul64(q, fd.fLow)
	return (lo ^ ql) & fd.mask()
}

// Pow returns a^e.
func (fd *Field) Pow(a uint64, e uint64) uint64 {
	r := uint64(1)
	a &= fd.mask()
	for e > 0 {
		if e&1 == 1 {
			r = fd.Mul(r, a)
		}
		a = fd.Mul(a, a)
		e >>= 1
	}
	return r
}

// EvalPoly evaluates the polynomial with the given coefficients
// (coeffs[i] multiplies x^i) at the point x, using Horner's rule.
func (fd *Field) EvalPoly(coeffs []uint64, x uint64) uint64 {
	var r uint64
	for i := len(coeffs) - 1; i >= 0; i-- {
		r = fd.Add(fd.Mul(r, x), coeffs[i])
	}
	return r
}
