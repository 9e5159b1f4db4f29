package hash

import (
	"math/rand"
	"slices"
	"testing"

	"mcf0/internal/bitvec"
	"mcf0/internal/gf2"
	"mcf0/internal/wire"
)

// enumerateToeplitz visits every function of H_Toeplitz(n, m) exactly once.
func enumerateToeplitz(n, m int, visit func(Func)) {
	diagBits := n + m - 1
	for d := uint64(0); d < 1<<uint(diagBits); d++ {
		for b := uint64(0); b < 1<<uint(m); b++ {
			vals := []uint64{d, b}
			i := 0
			f := NewToeplitz(n, m).Draw(func() uint64 { v := vals[i]; i++; return v })
			visit(f)
		}
	}
}

// TestToeplitzExactlyPairwiseIndependent verifies the 2-wise independence
// property of Definition 1 *exactly* by enumerating the whole family for a
// small (n, m).
func TestToeplitzExactlyPairwiseIndependent(t *testing.T) {
	n, m := 3, 2
	total := 0
	// counts[x1][x2][a1][a2]
	counts := map[[4]uint64]int{}
	enumerateToeplitz(n, m, func(f Func) {
		total++
		for x1 := uint64(0); x1 < 1<<uint(n); x1++ {
			for x2 := uint64(0); x2 < 1<<uint(n); x2++ {
				if x1 == x2 {
					continue
				}
				a1 := f.Eval(bitvec.FromUint64(x1, n)).Uint64()
				a2 := f.Eval(bitvec.FromUint64(x2, n)).Uint64()
				counts[[4]uint64{x1, x2, a1, a2}]++
			}
		}
	})
	want := total / (1 << uint(2*m)) // uniform over pairs of outputs
	for x1 := uint64(0); x1 < 1<<uint(n); x1++ {
		for x2 := uint64(0); x2 < 1<<uint(n); x2++ {
			if x1 == x2 {
				continue
			}
			for a1 := uint64(0); a1 < 1<<uint(m); a1++ {
				for a2 := uint64(0); a2 < 1<<uint(m); a2++ {
					if got := counts[[4]uint64{x1, x2, a1, a2}]; got != want {
						t.Fatalf("Pr[h(%d)=%d ∧ h(%d)=%d] = %d/%d, want %d/%d",
							x1, a1, x2, a2, got, total, want, total)
					}
				}
			}
		}
	}
}

// TestPolyPairwiseIndependent enumerates all degree-1 polynomials over
// GF(2^2) and checks exact pairwise independence.
func TestPolyPairwiseIndependent(t *testing.T) {
	n, s := 2, 2
	fam := NewPoly(n, s)
	counts := map[[4]uint64]int{}
	total := 0
	for c0 := uint64(0); c0 < 4; c0++ {
		for c1 := uint64(0); c1 < 4; c1++ {
			vals := []uint64{c0, c1}
			i := 0
			f := fam.Draw(func() uint64 { v := vals[i]; i++; return v })
			total++
			for x1 := uint64(0); x1 < 4; x1++ {
				for x2 := uint64(0); x2 < 4; x2++ {
					if x1 == x2 {
						continue
					}
					a1 := f.Eval(bitvec.FromUint64(x1, n)).Uint64()
					a2 := f.Eval(bitvec.FromUint64(x2, n)).Uint64()
					counts[[4]uint64{x1, x2, a1, a2}]++
				}
			}
		}
	}
	// Degree-1 polynomials over GF(4) interpolate any pair exactly once.
	for x1 := uint64(0); x1 < 4; x1++ {
		for x2 := uint64(0); x2 < 4; x2++ {
			if x1 == x2 {
				continue
			}
			for a1 := uint64(0); a1 < 4; a1++ {
				for a2 := uint64(0); a2 < 4; a2++ {
					if got := counts[[4]uint64{x1, x2, a1, a2}]; got != 1 {
						t.Fatalf("interpolation count = %d, want 1", got)
					}
				}
			}
		}
	}
	if total != 16 {
		t.Fatalf("family size %d, want 16", total)
	}
}

func TestToeplitzStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := NewToeplitz(8, 6).Draw(rng.Uint64).(*Linear)
	// Constant along diagonals: A[i][j] == A[i+1][j+1].
	for i := 0; i < 5; i++ {
		for j := 0; j < 7; j++ {
			if f.A().Row(i).Get(j) != f.A().Row(i+1).Get(j+1) {
				t.Fatal("Toeplitz matrix not constant along diagonal")
			}
		}
	}
}

func TestPrefixSliceConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, fam := range []Family{NewToeplitz(10, 10), NewXor(10, 10)} {
		f := fam.Draw(rng.Uint64).(*Linear)
		x := bitvec.Random(10, rng.Uint64)
		full := f.Eval(x)
		for m := 0; m <= 10; m++ {
			pf := f.Prefix(m)
			if got, want := pf.Eval(x), full.Prefix(m); !got.Equal(want) {
				t.Fatalf("%s: prefix slice h_%d(x) = %v, want %v", fam.Name(), m, got, want)
			}
			if f.PrefixIsZero(x, m) != full.Prefix(m).IsZero() {
				t.Fatalf("%s: PrefixIsZero(%d) disagrees with Eval", fam.Name(), m)
			}
		}
	}
}

// TestZeroPrefixLen checks ZeroPrefixLen against PrefixIsZero on draws
// with the carry-less kernel (Toeplitz, narrow) and without it (Toeplitz
// past the kernel's width, H_xor), including outputs that are all zero.
func TestZeroPrefixLen(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	zero := 0
	for _, fam := range []Family{NewToeplitz(1, 1), NewToeplitz(3, 3), NewToeplitz(65, 65),
		NewToeplitz(300, 300), NewXor(3, 3), NewXor(70, 70)} {
		n := fam.InBits()
		scratch := bitvec.New(fam.OutBits())
		for k := 0; k < 50; k++ {
			f := fam.Draw(rng.Uint64).(*Linear)
			x := bitvec.Random(n, rng.Uint64)
			got := f.ZeroPrefixLen(x, scratch)
			if !f.PrefixIsZero(x, got) || got < f.OutBits() && f.PrefixIsZero(x, got+1) {
				t.Fatalf("%s(%d): ZeroPrefixLen %d disagrees with PrefixIsZero", fam.Name(), n, got)
			}
			if got == f.OutBits() {
				zero++
			}
		}
	}
	if zero == 0 {
		t.Error("no draw mapped x to zero")
	}
}

func TestZeroPrefixSystemMatchesEval(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 6
	f := NewToeplitz(n, n).Draw(rng.Uint64).(*Linear)
	for m := 0; m <= n; m++ {
		// The solution set of ZeroPrefixSystem(m) must be exactly
		// {x : h_m(x) = 0^m}.
		sys := f.ZeroPrefixSystem(m)
		got := map[string]bool{}
		sys.EnumerateSolutions(-1, func(x bitvec.BitVec) bool {
			got[x.Key()] = true
			return true
		})
		want := map[string]bool{}
		for v := uint64(0); v < 1<<uint(n); v++ {
			x := bitvec.FromUint64(v, n)
			if f.Eval(x).Prefix(m).IsZero() {
				want[x.Key()] = true
			}
		}
		if len(got) != len(want) {
			t.Fatalf("m=%d: system has %d solutions, eval says %d", m, len(got), len(want))
		}
		for k := range want {
			if !got[k] {
				t.Fatalf("m=%d: solution sets differ", m)
			}
		}
	}
}

func TestPolyCoefficients(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	f := NewPoly(16, 4).Draw(rng.Uint64)
	coeffs, ok := PolyCoefficients(f)
	if !ok || len(coeffs) != 4 {
		t.Fatalf("PolyCoefficients: ok=%v len=%d", ok, len(coeffs))
	}
	lin := NewToeplitz(4, 4).Draw(rng.Uint64)
	if _, ok := PolyCoefficients(lin); ok {
		t.Fatal("PolyCoefficients succeeded on a linear function")
	}
	// A polynomial travels by its coefficients alone: AppendPoly, not
	// AppendFunc, writes it, and DecodePoly appends them to a slab.
	if _, ok := AppendFunc(nil, f); ok {
		t.Fatal("AppendFunc wrote a polynomial draw")
	}
	r := wire.NewReader(AppendPoly(nil, 16, coeffs))
	if got := DecodePoly(r, 16, []uint64{7}); r.Err() != nil || !slices.Equal(got[1:], coeffs) || got[0] != 7 {
		t.Fatalf("DecodePoly: %v, %v", got, r.Err())
	}
}

func TestFamilyMetadata(t *testing.T) {
	cases := []struct {
		fam  Family
		n, m int
		name string
	}{
		{NewToeplitz(7, 5), 7, 5, "toeplitz"},
		{NewXor(7, 5), 7, 5, "xor"},
		{NewPoly(8, 6), 8, 8, "poly"},
	}
	for _, c := range cases {
		if c.fam.InBits() != c.n || c.fam.OutBits() != c.m {
			t.Errorf("%s: shape %d→%d, want %d→%d", c.name, c.fam.InBits(), c.fam.OutBits(), c.n, c.m)
		}
		if c.fam.Name() != c.name {
			t.Errorf("Name() = %q, want %q", c.fam.Name(), c.name)
		}
	}
}

// TestLinearEqual pins the shared-draw test sketch merges rely on:
// pointer-equal and structurally equal draws match; a different offset,
// one different A row, a different shape, or nil do not.
func TestLinearEqual(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	h := NewToeplitz(6, 18).Draw(rng.Uint64).(*Linear)
	// clone rebuilds h's A and b in fresh storage, with row i's bit j and
	// b's bit k flipped when asked (−1 leaves them alone).
	clone := func(row, col, bBit int) *Linear {
		a, rows := gf2.NewSlabMatrix(h.A().Rows(), h.A().Cols())
		for i := range rows {
			rows[i].CopyFrom(h.A().Row(i))
		}
		if row >= 0 {
			rows[row].Flip(col)
		}
		b := h.B.Clone()
		if bBit >= 0 {
			b.Flip(bBit)
		}
		return NewLinear(a, b)
	}
	other := NewXor(6, 12).Draw(rng.Uint64).(*Linear)
	var none *Linear
	for _, c := range []struct {
		name string
		a, b *Linear
		want bool
	}{
		{"pointer-equal", h, h, true},
		{"structurally equal", h, clone(-1, 0, -1), true},
		{"b differs", h, clone(-1, 0, 17), false},
		{"one A row differs", h, clone(9, 3, -1), false},
		{"shape differs", h, other, false},
		{"nil vs draw", h, none, false},
		{"draw vs nil", none, h, false},
		{"nil vs nil", none, none, true},
	} {
		if got := c.a.Equal(c.b); got != c.want {
			t.Errorf("%s: Equal = %v, want %v", c.name, got, c.want)
		}
	}
}
