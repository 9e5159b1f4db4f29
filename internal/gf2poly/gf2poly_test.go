package gf2poly

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestKnownIrreducibles(t *testing.T) {
	// Spot checks against textbook polynomials.
	known := []struct {
		m   int
		f   uint64 // low bits of a known irreducible x^m + ...
		irr bool
	}{
		{8, 0x1B, true},  // AES: x^8+x^4+x^3+x+1
		{8, 0x01, false}, // x^8+1 = (x+1)^8
		{4, 0x03, true},  // x^4+x+1
		{4, 0x05, false}, // x^4+x^2+1 = (x^2+x+1)^2
		{2, 0x03, true},  // x^2+x+1
		{3, 0x03, true},  // x^3+x+1
		{3, 0x07, false}, // x^3+x^2+x+1 divisible by x+1
	}
	for _, k := range known {
		f := poly128{lo: k.f}.xor(poly128{lo: 1}.shl(k.m))
		if got := isIrreducible(f, k.m); got != k.irr {
			t.Errorf("isIrreducible(x^%d + %#x) = %v, want %v", k.m, k.f, got, k.irr)
		}
	}
}

func TestIsIrreducibleMatchesBruteForce(t *testing.T) {
	// For small degrees, check every monic polynomial against trial
	// division by all lower-degree polynomials.
	for m := 2; m <= 10; m++ {
		for low := uint64(0); low < 1<<uint(m); low++ {
			f := poly128{lo: low}.xor(poly128{lo: 1}.shl(m))
			want := bruteIrreducible(f, m)
			if got := isIrreducible(f, m); got != want {
				t.Fatalf("m=%d low=%#x: rabin=%v brute=%v", m, low, got, want)
			}
		}
	}
}

func bruteIrreducible(f poly128, m int) bool {
	for d := 1; d <= m/2; d++ {
		for low := uint64(0); low < 1<<uint(d); low++ {
			g := poly128{lo: low}.xor(poly128{lo: 1}.shl(d))
			if mod(f, g, d).isZero() {
				return false
			}
		}
	}
	return true
}

func TestClmulCommutativeDistributive(t *testing.T) {
	f := func(a, b, c uint64) bool {
		ab := clmul(a, b)
		ba := clmul(b, a)
		if ab != ba {
			return false
		}
		// a(b+c) = ab + ac
		l := clmul(a, b^c)
		r := clmul(a, b).xor(clmul(a, c))
		return l == r
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFieldAxioms(t *testing.T) {
	for _, m := range []int{1, 2, 3, 5, 8, 13, 16, 24, 32, 47, 63, 64} {
		fd := NewField(m)
		rng := rand.New(rand.NewSource(int64(m)))
		mask := fd.mask()
		for trial := 0; trial < 200; trial++ {
			a := rng.Uint64() & mask
			b := rng.Uint64() & mask
			c := rng.Uint64() & mask
			if fd.Mul(a, b) != fd.Mul(b, a) {
				t.Fatalf("m=%d: multiplication not commutative", m)
			}
			if fd.Mul(a, fd.Mul(b, c)) != fd.Mul(fd.Mul(a, b), c) {
				t.Fatalf("m=%d: multiplication not associative", m)
			}
			if fd.Mul(a, fd.Add(b, c)) != fd.Add(fd.Mul(a, b), fd.Mul(a, c)) {
				t.Fatalf("m=%d: distributivity fails", m)
			}
			if fd.Mul(a, 1) != a {
				t.Fatalf("m=%d: 1 is not multiplicative identity", m)
			}
			if fd.Mul(a, 0) != 0 {
				t.Fatalf("m=%d: 0 not absorbing", m)
			}
		}
	}
}

func TestFieldInverseViaFermat(t *testing.T) {
	// In GF(2^m), a^(2^m - 1) = 1 for a != 0, so a^(2^m - 2) is a's inverse.
	for _, m := range []int{2, 3, 8, 16, 32} {
		fd := NewField(m)
		rng := rand.New(rand.NewSource(int64(100 + m)))
		order := uint64(1)<<uint(m) - 1
		for trial := 0; trial < 50; trial++ {
			a := rng.Uint64() & fd.mask()
			if a == 0 {
				continue
			}
			inv := fd.Pow(a, order-1)
			if fd.Mul(a, inv) != 1 {
				t.Fatalf("m=%d: a*a^{-1} != 1 for a=%#x", m, a)
			}
		}
	}
}

func TestFieldMulMatchesTableGF16(t *testing.T) {
	// Exhaustive multiplication check in GF(2^4) with modulus x^4+x+1
	// (lexicographically smallest irreducible of degree 4, so NewField(4)
	// must select exactly it).
	fd := NewField(4)
	if fd.Modulus() != 0x13 {
		t.Fatalf("GF(16) modulus = %#x, want x^4+x+1 (0x13)", fd.Modulus())
	}
	// Reference: schoolbook multiply then reduce by 0b10011.
	ref := func(a, b uint64) uint64 {
		var p uint64
		for i := uint(0); i < 4; i++ {
			if b&(1<<i) != 0 {
				p ^= a << i
			}
		}
		for d := 7; d >= 4; d-- {
			if p&(1<<uint(d)) != 0 {
				p ^= 0b10011 << uint(d-4)
			}
		}
		return p
	}
	for a := uint64(0); a < 16; a++ {
		for b := uint64(0); b < 16; b++ {
			if fd.Mul(a, b) != ref(a, b) {
				t.Fatalf("GF(16): %d*%d = %d, want %d", a, b, fd.Mul(a, b), ref(a, b))
			}
		}
	}
}

func TestEvalPolyHorner(t *testing.T) {
	fd := NewField(16)
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 100; trial++ {
		deg := rng.Intn(6)
		coeffs := make([]uint64, deg+1)
		for i := range coeffs {
			coeffs[i] = rng.Uint64() & fd.mask()
		}
		x := rng.Uint64() & fd.mask()
		// Direct evaluation with Pow.
		var want uint64
		for i, c := range coeffs {
			want = fd.Add(want, fd.Mul(c, fd.Pow(x, uint64(i))))
		}
		if got := fd.EvalPoly(coeffs, x); got != want {
			t.Fatalf("EvalPoly mismatch: got %#x want %#x", got, want)
		}
	}
}

func TestNewFieldCachesAndPanics(t *testing.T) {
	if NewField(8) != NewField(8) {
		t.Error("NewField not cached")
	}
	for _, m := range []int{0, -1, 65} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewField(%d) did not panic", m)
				}
			}()
			NewField(m)
		}()
	}
}

func TestAllDegreesConstructible(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping exhaustive degree sweep in -short mode")
	}
	for m := 1; m <= 64; m++ {
		fd := NewField(m)
		// Sanity: x * x = x^2 for m > 2 (no reduction can trigger).
		if m > 2 {
			if fd.Mul(2, 2) != 4 {
				t.Fatalf("m=%d: x*x != x^2", m)
			}
		}
	}
}

// Modulus returns the low 64 bits of the irreducible modulus polynomial.
// For m < 64 this includes the x^m term; for m = 64 the x^64 term is
// implicit. Exposed for tests and documentation.
func (fd *Field) Modulus() uint64 { return fd.f.lo }
