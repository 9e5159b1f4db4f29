package hash

import (
	"fmt"
	"testing"

	"mcf0/internal/bitvec"
	"mcf0/internal/gf2"
	"mcf0/internal/stats"
)

// Prefix returns the m-th prefix slice h_m, consisting of the first m
// output bits: h_m(x) = A_m·x + b_m where A_m keeps the first m rows. A
// Toeplitz kernel survives the slice (the prefix reads a truncation of
// the packed diagonal). It is the slice-by-construction reference that
// PrefixIsZero and the word paths are checked against.
func (l *Linear) Prefix(m int) *Linear {
	if m > l.A.Rows() {
		panic("hash: prefix longer than output")
	}
	a, rows := gf2.NewSlabMatrix(m, l.A.Cols())
	for i := range rows {
		rows[i].CopyFrom(l.A.Row(i))
	}
	p := &Linear{A: a, B: l.B.Prefix(m)}
	if l.toep != nil {
		p.toep = l.toep.prefix(m, p.B)
	}
	return p
}

// prefix returns the kernel of the m′-row slice h_{m′}. Rows 0..m′−1 read
// diagonal positions [m−m′, m+n−2], which are exactly the low m′+n−1 bits
// of the reversed diagonal — a truncation, not a recomputation.
func (k *toepKernel) prefix(mp int, b bitvec.BitVec) *toepKernel {
	if mp < 1 {
		return nil
	}
	nb := mp + k.n - 1
	p := &toepKernel{n: k.n, m: mp, dr: append([]uint64(nil), k.dr[:(nb+63)/64]...)}
	if tail := uint(nb) % 64; tail != 0 {
		p.dr[len(p.dr)-1] &= 1<<tail - 1
	}
	p.finish(b)
	return p
}

// slowCopy strips the carry-less kernel off a Toeplitz draw, leaving the
// per-row dot-product path over the same A and b — the reference the
// CLMUL path must match bit for bit.
func slowCopy(l *Linear) *Linear { return NewLinear(l.A, l.B) }

// probeInputs yields a structured + random set of n-bit inputs: zero,
// all-ones, single bits at the word boundaries, and random vectors.
func probeInputs(n int, rng *stats.RNG) []bitvec.BitVec {
	xs := []bitvec.BitVec{bitvec.New(n)}
	ones := bitvec.New(n)
	for i := 0; i < n; i++ {
		ones.Set(i, true)
	}
	xs = append(xs, ones)
	for _, i := range []int{0, 1, 62, 63, 64, 65, n - 2, n - 1} {
		if i < 0 || i >= n {
			continue
		}
		v := bitvec.New(n)
		v.Set(i, true)
		xs = append(xs, v)
	}
	for k := 0; k < 24; k++ {
		xs = append(xs, bitvec.Random(n, rng.Uint64))
	}
	return xs
}

// TestToeplitzClmulMatchesDotRowEdges runs the CLMUL path against the
// per-row path across the width grid straddling the word boundaries —
// n, m ∈ {1, 63, 64, 65, 127} — for EvalInto, Eval, the Uint64Hash
// adapter, and prefix slices.
func TestToeplitzClmulMatchesDotRowEdges(t *testing.T) {
	widths := []int{1, 63, 64, 65, 127}
	rng := stats.NewRNG(99)
	for _, n := range widths {
		for _, m := range widths {
			t.Run(fmt.Sprintf("n=%d/m=%d", n, m), func(t *testing.T) {
				f := NewToeplitz(n, m).Draw(rng.Uint64).(*Linear)
				if f.toep == nil {
					t.Fatalf("kernel not attached for n=%d m=%d", n, m)
				}
				slow := slowCopy(f)
				fast := bitvec.New(m)
				want := bitvec.New(m)
				u64, haveU64 := AsUint64Hash(f)
				if (n <= 64 && m <= 64) != haveU64 {
					t.Fatalf("AsUint64Hash availability = %v, want %v", haveU64, n <= 64 && m <= 64)
				}
				for _, x := range probeInputs(n, rng) {
					f.EvalInto(x, fast)
					slow.EvalInto(x, want)
					if !fast.Equal(want) {
						t.Fatalf("EvalInto(%s) = %s, want %s", x, fast, want)
					}
					if got := f.Eval(x); !got.Equal(want) {
						t.Fatalf("Eval(%s) = %s, want %s", x, got, want)
					}
					if haveU64 {
						if got, wantU := u64.EvalUint64(x.Uint64()), want.Uint64(); got != wantU {
							t.Fatalf("EvalUint64(%s) = %#x, want %#x", x, got, wantU)
						}
					}
				}
				// Prefix slices keep a (truncated) kernel and must agree too.
				for _, mp := range []int{1, m / 2, m - 1, m} {
					if mp < 1 {
						continue
					}
					pf := f.Prefix(mp)
					ps := slow.Prefix(mp)
					if mp > 0 && pf.toep == nil {
						t.Fatalf("prefix(%d) dropped the kernel", mp)
					}
					pFast := bitvec.New(mp)
					pWant := bitvec.New(mp)
					for k := 0; k < 8; k++ {
						x := bitvec.Random(n, rng.Uint64)
						pf.EvalInto(x, pFast)
						ps.EvalInto(x, pWant)
						if !pFast.Equal(pWant) {
							t.Fatalf("prefix(%d).EvalInto(%s) = %s, want %s", mp, x, pFast, pWant)
						}
					}
				}
			})
		}
	}
}

// TestToeplitzClmulMatchesWindowDraw1kSeeds quick-checks that for a
// thousand seeded draws (random small shapes), the CLMUL representation
// realizes the identical function to the window-based matrix draw.
func TestToeplitzClmulMatchesWindowDraw1kSeeds(t *testing.T) {
	for seed := uint64(1); seed <= 1000; seed++ {
		shapeRng := stats.NewRNG(seed * 0x9e3779b9)
		n := 1 + int(shapeRng.Uint64n(96))
		m := 1 + int(shapeRng.Uint64n(96))
		f := NewToeplitz(n, m).Draw(stats.NewRNG(seed).Uint64).(*Linear)
		if f.toep == nil {
			t.Fatalf("seed %d: kernel not attached for n=%d m=%d", seed, n, m)
		}
		slow := slowCopy(f)
		fast := bitvec.New(m)
		want := bitvec.New(m)
		for k := 0; k < 4; k++ {
			x := bitvec.Random(n, shapeRng.Uint64)
			f.EvalInto(x, fast)
			slow.EvalInto(x, want)
			if !fast.Equal(want) {
				t.Fatalf("seed %d n=%d m=%d: EvalInto(%s) = %s, want %s", seed, n, m, x, fast, want)
			}
		}
	}
}

// TestToeplitzWideDrawFallsBack checks that draws too wide for the stack
// product buffer quietly keep the per-row path and still evaluate
// correctly.
func TestToeplitzWideDrawFallsBack(t *testing.T) {
	rng := stats.NewRNG(7)
	n, m := 200, 400 // ⌈599/64⌉ + ⌈200/64⌉ = 14 words > toepMaxWords
	f := NewToeplitz(n, m).Draw(rng.Uint64).(*Linear)
	if f.toep != nil {
		t.Fatal("expected wide draw to skip the kernel")
	}
	x := bitvec.Random(n, rng.Uint64)
	y := f.Eval(x)
	for i := 0; i < m; i++ {
		if want := f.A.Row(i).Dot(x) != f.B.Get(i); y.Get(i) != want {
			t.Fatalf("bit %d mismatch on fallback path", i)
		}
	}
	// Large-but-attachable shapes exercise the generic stack-buffer path
	// (multi-word input and diagonal).
	n, m = 130, 180 // ⌈309/64⌉ + ⌈130/64⌉ = 8 words = toepMaxWords
	f = NewToeplitz(n, m).Draw(rng.Uint64).(*Linear)
	if f.toep == nil {
		t.Fatal("expected kernel on 8-word shape")
	}
	slow := slowCopy(f)
	fast := bitvec.New(m)
	want := bitvec.New(m)
	for _, x := range probeInputs(n, rng) {
		f.EvalInto(x, fast)
		slow.EvalInto(x, want)
		if !fast.Equal(want) {
			t.Fatalf("generic path EvalInto(%s) = %s, want %s", x, fast, want)
		}
	}
}

// TestAsUint64Hash pins the adapter contract: pass-through for native
// implementors, adapters only for ≤64-bit linear shapes, agreement with
// Eval on every family.
func TestAsUint64Hash(t *testing.T) {
	rng := stats.NewRNG(13)
	poly := NewPoly(24, 4).Draw(rng.Uint64)
	if u, ok := AsUint64Hash(poly); !ok || u != poly.(Uint64Hash) {
		t.Fatal("polynomial family must pass through unchanged")
	}
	if _, ok := AsUint64Hash(NewToeplitz(32, 96).Draw(rng.Uint64)); ok {
		t.Fatal("m > 64 must not claim an integer path")
	}
	if _, ok := AsUint64Hash(NewXor(96, 32).Draw(rng.Uint64)); ok {
		t.Fatal("n > 64 must not claim an integer path")
	}
	for _, fam := range []Family{NewToeplitz(24, 24), NewXor(24, 24), NewSparse(24, 24, 0.2)} {
		f := fam.Draw(rng.Uint64)
		u, ok := AsUint64Hash(f)
		if !ok {
			t.Fatalf("%s: expected integer path", fam.Name())
		}
		for k := 0; k < 200; k++ {
			v := rng.Uint64n(1 << 24)
			want := f.Eval(bitvec.FromUint64(v, 24)).Uint64()
			if got := u.EvalUint64(v); got != want {
				t.Fatalf("%s: EvalUint64(%#x) = %#x, want %#x", fam.Name(), v, got, want)
			}
		}
	}
}

// TestPrefixWordsMatchesEvalPrefix pins the batched prefix kernel against
// the per-element path: for every n in 1..64, at m = n (Bucketing's shape)
// and m = 3n (Minimum's), and every prefix width mp in 1..min(m, 64),
// PrefixWords must equal EvalInto followed by the first mp bits, over the
// probe edge cases and random elements.
func TestPrefixWordsMatchesEvalPrefix(t *testing.T) {
	rng := stats.NewRNG(0x9f1)
	for n := 1; n <= 64; n++ {
		for _, m := range []int{n, 3 * n} {
			f := NewToeplitz(n, m).Draw(rng.Uint64).(*Linear)
			xs := probeInputs(n, rng)
			xw := make([]uint64, len(xs))
			full := make([]bitvec.BitVec, len(xs))
			for k, x := range xs {
				xw[k] = x.Words()[0]
				full[k] = f.Eval(x)
			}
			dst := make([]uint64, len(xs))
			for mp := 1; mp <= min(m, 64); mp++ {
				if !f.PrefixWords(mp, xw, dst) {
					t.Fatalf("n=%d m=%d mp=%d: PrefixWords declined a Toeplitz draw", n, m, mp)
				}
				for k := range xs {
					if want := full[k].Prefix(mp).Words()[0]; dst[k] != want {
						t.Fatalf("n=%d m=%d mp=%d x=%v: PrefixWords %#x, want %#x",
							n, m, mp, xs[k], dst[k], want)
					}
				}
			}
		}
	}
}

// TestPrefixWordsDeclines lists the shapes PrefixWords leaves to the
// per-element path, and checks it writes nothing when it declines.
func TestPrefixWordsDeclines(t *testing.T) {
	rng := stats.NewRNG(0x9f2)
	toep := NewToeplitz(32, 96).Draw(rng.Uint64).(*Linear)
	wide := NewToeplitz(65, 65).Draw(rng.Uint64).(*Linear)
	xor := NewXor(32, 32).Draw(rng.Uint64).(*Linear)
	xw := []uint64{1, 2, 3}
	for _, c := range []struct {
		name string
		l    *Linear
		mp   int
	}{
		{"mp=0", toep, 0}, {"mp=65", toep, 65}, {"mp>m", NewToeplitz(8, 8).Draw(rng.Uint64).(*Linear), 9},
		{"n>64", wide, 1}, {"no kernel", xor, 8}, {"kernel stripped", slowCopy(toep), 8},
	} {
		dst := []uint64{7, 7, 7}
		if c.l.PrefixWords(c.mp, xw, dst) {
			t.Fatalf("%s: PrefixWords accepted", c.name)
		}
		if dst[0] != 7 || dst[1] != 7 || dst[2] != 7 {
			t.Fatalf("%s: PrefixWords wrote into dst after declining", c.name)
		}
	}
}
