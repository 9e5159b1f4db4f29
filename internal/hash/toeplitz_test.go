package hash

import (
	"fmt"
	"sync"
	"testing"

	"mcf0/internal/bitvec"
	"mcf0/internal/gf2"
	"mcf0/internal/stats"
	"mcf0/internal/wire"
)

// Prefix returns the m-th prefix slice h_m, consisting of the first m
// output bits: h_m(x) = A_m·x + b_m where A_m keeps the first m rows. A
// Toeplitz kernel survives the slice (the prefix reads a truncation of
// the packed diagonal). It is the slice-by-construction reference that
// PrefixIsZero and the word paths are checked against.
func (l *Linear) Prefix(m int) *Linear {
	if m > l.OutBits() {
		panic("hash: prefix longer than output")
	}
	b := l.B.Prefix(m)
	if l.toep != nil && m > 0 {
		return l.toep.prefix(m, b)
	}
	a := gf2.NewMatrix(m, l.InBits())
	for i := 0; i < m; i++ {
		a.Row(i).CopyFrom(l.A().Row(i))
	}
	return NewLinear(a, b)
}

// prefix returns the m′-row slice h_{m′} with offset b, a kernel draw.
// Rows 0..m′−1 read diagonal positions [m−m′, m+n−2], which are exactly
// the low m′+n−1 bits of the reversed diagonal — a truncation, not a
// recomputation.
func (k *toepKernel) prefix(mp int, b bitvec.BitVec) *Linear {
	nb := mp + k.n - 1
	dr := append([]uint64(nil), k.dr[:(nb+63)/64]...)
	if tail := uint(nb) % 64; tail != 0 {
		dr[len(dr)-1] &= 1<<tail - 1
	}
	return newKernelLinear(k.n, mp, dr, b)
}

// slowCopy strips the carry-less kernel off a Toeplitz draw, leaving the
// per-row dot-product path over the same A and b — the reference the
// CLMUL path must match bit for bit.
func slowCopy(l *Linear) *Linear { return NewLinear(l.A(), l.B) }

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
					if got := eval(f, x); !got.Equal(want) {
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
	y := eval(f, x)
	for i := 0; i < m; i++ {
		if want := f.A().Row(i).Dot(x) != f.B.Get(i); y.Get(i) != want {
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
	for _, fam := range []Family{
		NewToeplitz(24, 24), NewXor(24, 24), NewSparse(24, 24, 0.2),
		NewXor(64, 64), NewXor(1, 64), NewXor(64, 1),
	} {
		f := fam.Draw(rng.Uint64)
		u, ok := AsUint64Hash(f)
		if !ok {
			t.Fatalf("%s: expected integer path", fam.Name())
		}
		n := fam.InBits()
		for k := 0; k < 200; k++ {
			v := rng.Uint64() >> (64 - uint(n))
			want := eval(f, bitvec.FromUint64(v, n)).Uint64()
			if got := u.EvalUint64(v); got != want {
				t.Fatalf("%s(%d, %d): EvalUint64(%#x) = %#x, want %#x", fam.Name(), n, fam.OutBits(), v, got, want)
			}
		}
	}
}

// TestPrefixWordsMatchesEvalPrefix pins the batched prefix kernel against
// the per-element path: for every n in 1..64, at m = n (Bucketing's shape)
// and m = 3n (Minimum's), and every prefix width mp in 1..min(m, 64),
// PrefixWords must keep exactly the elements whose EvalInto prefix (the
// first mp bits) is lexicographically at most the bound, in order, with
// that prefix — under an all-ones bound (every element), a zero bound,
// Bucketing's level mask and a random word — over the probe edge cases
// and random elements.
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
				full[k] = eval(f, x)
			}
			dst, idx := make([]uint64, len(xs)), make([]int, len(xs))
			for mp := 1; mp <= min(m, 64); mp++ {
				level := 1 + int(rng.Uint64()%uint64(mp))
				for _, mx := range []uint64{^uint64(0), 0, ^(uint64(1)<<uint(level) - 1), rng.Uint64()} {
					kept, ok := f.PrefixWords(mp, mx, xw, dst, idx)
					if !ok {
						t.Fatalf("n=%d m=%d mp=%d: PrefixWords declined a Toeplitz draw", n, m, mp)
					}
					j := 0
					for k := range xs {
						want := full[k].Prefix(mp).Words()[0]
						if !lexAtMost(want, mx, mp) {
							continue
						}
						if j >= kept || dst[j] != want || idx[j] != k {
							t.Fatalf("n=%d m=%d mp=%d mx=%#x x=%v: kept entry %d should be (%#x, %d)",
								n, m, mp, mx, xs[k], j, want, k)
						}
						j++
					}
					if kept != j {
						t.Fatalf("n=%d m=%d mp=%d mx=%#x: kept %d, want %d", n, m, mp, mx, kept, j)
					}
				}
			}
		}
	}
}

// lexAtMost reports whether the mp-bit prefix y is lexicographically at
// most mx's first mp bits, comparing bit by bit from bit 0.
func lexAtMost(y, mx uint64, mp int) bool {
	for i := 0; i < mp; i++ {
		if yb, mb := y>>uint(i)&1, mx>>uint(i)&1; yb != mb {
			return mb == 1
		}
	}
	return true
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
		dst, idx := []uint64{7, 7, 7}, []int{7, 7, 7}
		if kept, ok := c.l.PrefixWords(c.mp, ^uint64(0), xw, dst, idx); ok || kept != 0 {
			t.Fatalf("%s: PrefixWords accepted (kept %d)", c.name, kept)
		}
		if dst[0] != 7 || dst[1] != 7 || dst[2] != 7 || idx[0] != 7 || idx[1] != 7 || idx[2] != 7 {
			t.Fatalf("%s: PrefixWords wrote into dst or idx after declining", c.name)
		}
	}
}

// lazyRowShapes are the (n, m) shapes the lazy-row tests draw: word
// edges, Bucketing's n→n and Minimum's n→3n, and one draw too wide for a
// kernel, which keeps its eager matrix.
var lazyRowShapes = []struct{ n, m int }{
	{1, 1}, {20, 20}, {32, 32}, {32, 96}, {63, 64}, {64, 64}, {64, 192}, {200, 300},
}

// eagerToeplitz replays Toeplitz.Draw's randomness from seed and builds
// the matrix the way every draw did before rows were built on first use:
// row i is the window of the diagonal at offset m−1−i.
func eagerToeplitz(n, m int, seed uint64) (*gf2.Matrix, bitvec.BitVec) {
	next := stats.NewRNG(seed).Uint64
	diag := bitvec.Random(n+m-1, next)
	a := gf2.NewMatrix(m, n)
	for i := 0; i < m; i++ {
		diag.WindowInto(m-1-i, a.Row(i))
	}
	return a, bitvec.Random(m, next)
}

// roundTrip encodes f and decodes it again.
func roundTrip(t *testing.T, f *Linear) *Linear {
	t.Helper()
	r := wire.NewReader(mustAppendFunc(t, f))
	g := DecodeLinear(r)
	if r.Err() != nil {
		t.Fatalf("decode: %v", r.Err())
	}
	return g
}

func mustAppendFunc(t *testing.T, f Func) []byte {
	t.Helper()
	buf, ok := AppendFunc(nil, f)
	if !ok {
		t.Fatal("AppendFunc refused a Toeplitz draw")
	}
	return buf
}

// requireRows fails unless l's matrix form and offset equal a and b.
func requireRows(t *testing.T, what string, l *Linear, a *gf2.Matrix, b bitvec.BitVec) {
	t.Helper()
	got := l.A()
	if got.Rows() != a.Rows() || got.Cols() != a.Cols() || l.InBits() != a.Cols() || l.OutBits() != a.Rows() {
		t.Fatalf("%s: shape %dx%d (InBits %d, OutBits %d), want %dx%d",
			what, got.Rows(), got.Cols(), l.InBits(), l.OutBits(), a.Rows(), a.Cols())
	}
	for i := 0; i < a.Rows(); i++ {
		if !got.Row(i).Equal(a.Row(i)) {
			t.Fatalf("%s: row %d = %s, want %s", what, i, got.Row(i), a.Row(i))
		}
	}
	if !l.B.Equal(b) {
		t.Fatalf("%s: b = %s, want %s", what, l.B, b)
	}
}

// TestToeplitzLazyRowsMatchEagerWindows checks that the rows a draw
// builds on first use — from a fresh Draw and from a DecodeLinear round
// trip — are the eager window construction of the same randomness, and
// that only the too-wide shape goes without a kernel.
func TestToeplitzLazyRowsMatchEagerWindows(t *testing.T) {
	for i, sh := range lazyRowShapes {
		seed := uint64(0x1a2 + i)
		a, b := eagerToeplitz(sh.n, sh.m, seed)
		f := NewToeplitz(sh.n, sh.m).Draw(stats.NewRNG(seed).Uint64).(*Linear)
		// Only the (200, 300) draw is past toepMaxWords.
		if wantKernel := sh.m != 300; (f.toep != nil) != wantKernel {
			t.Fatalf("n=%d m=%d: kernel attached = %v, want %v", sh.n, sh.m, f.toep != nil, wantKernel)
		}
		dec := roundTrip(t, f)
		requireRows(t, fmt.Sprintf("draw n=%d m=%d", sh.n, sh.m), f, a, b)
		requireRows(t, fmt.Sprintf("decoded n=%d m=%d", sh.n, sh.m), dec, a, b)
		if (dec.toep != nil) != (f.toep != nil) {
			t.Fatalf("n=%d m=%d: decoded kernel attached = %v, draw %v", sh.n, sh.m, dec.toep != nil, f.toep != nil)
		}
	}
}

// TestLinearEqualAcrossForms checks that Equal holds between a draw and
// itself, its decoded copy and a kernel-less copy with the same rows, in
// both directions, and fails against a different draw of the same shape
// and against the draw with one diagonal bit flipped (same b) in every
// form; kernel-against-kernel comparisons build no rows.
func TestLinearEqualAcrossForms(t *testing.T) {
	for i, sh := range lazyRowShapes {
		seed := uint64(0x1b3 + i)
		rng := stats.NewRNG(seed)
		f := NewToeplitz(sh.n, sh.m).Draw(rng.Uint64).(*Linear)
		g := NewToeplitz(sh.n, sh.m).Draw(rng.Uint64).(*Linear)
		diag := bitvec.Random(sh.n+sh.m-1, stats.NewRNG(seed).Uint64)
		diag.Flip((sh.n + sh.m - 1) / 2)
		oneBit := newToeplitz(sh.n, sh.m, diag, f.B.Clone())
		dec := roundTrip(t, f)
		if f.toep != nil && (!f.Equal(dec) || !dec.Equal(f)) {
			t.Fatalf("n=%d m=%d: draw and decoded copy differ", sh.n, sh.m)
		}
		if f.toep != nil && (f.toep.rows.Load() != nil || dec.toep.rows.Load() != nil) {
			t.Fatalf("n=%d m=%d: comparing two kernels built rows", sh.n, sh.m)
		}
		a := gf2.NewMatrix(sh.m, sh.n)
		for i := 0; i < sh.m; i++ {
			a.Row(i).CopyFrom(f.A().Row(i))
		}
		plain := NewLinear(a, f.B.Clone())
		for _, c := range []struct {
			name string
			a, b *Linear
			want bool
		}{
			{"same pointer", f, f, true},
			{"decoded copy", f, dec, true},
			{"kernel-less copy", f, plain, true},
			{"kernel-less vs decoded", plain, dec, true},
			{"other draw", f, g, false},
			{"other draw vs decoded", g, dec, false},
			{"other draw vs kernel-less", g, plain, false},
			{"one diagonal bit", f, oneBit, false},
			{"one diagonal bit vs decoded", oneBit, dec, false},
			{"one diagonal bit vs kernel-less", oneBit, plain, false},
		} {
			if c.a.Equal(c.b) != c.want || c.b.Equal(c.a) != c.want {
				t.Fatalf("n=%d m=%d %s: Equal = %v, want %v", sh.n, sh.m, c.name, !c.want, c.want)
			}
		}
	}
}

// TestToeplitzRowsBuiltOnFirstUse checks that a kernel draw, drawn or
// decoded, holds no matrix through every kernel path — evaluation, the
// word paths, Equal, encoding — and that the first row reader builds it
// once: later calls return the same pointer.
func TestToeplitzRowsBuiltOnFirstUse(t *testing.T) {
	rng := stats.NewRNG(0x1c4)
	f := NewToeplitz(20, 20).Draw(rng.Uint64).(*Linear)
	dec := roundTrip(t, f)
	x := bitvec.Random(20, rng.Uint64)
	for _, l := range []*Linear{f, dec} {
		y := eval(l, x)
		l.ZeroPrefixLen(x, y)
		l.PrefixWords(20, ^uint64(0), x.Words(), make([]uint64, 1), make([]int, 1))
		u, _ := AsUint64Hash(l)
		u.EvalUint64(x.Uint64())
		l.Equal(f)
		mustAppendFunc(t, l)
		if l.toep.rows.Load() != nil {
			t.Fatal("kernel paths built the matrix")
		}
	}
	for name, read := range map[string]func(l *Linear){
		"A":                 func(l *Linear) { l.A() },
		"PrefixIsZero":      func(l *Linear) { l.PrefixIsZero(x, 3) },
		"ZeroPrefixSystem":  func(l *Linear) { l.ZeroPrefixSystem(3) },
		"PrefixEqualSystem": func(l *Linear) { l.PrefixEqualSystem(2, bitvec.New(2)) },
		"SuffixZeroSystem":  func(l *Linear) { l.SuffixZeroSystem(4) },
	} {
		drawn := NewToeplitz(20, 20).Draw(stats.NewRNG(0x1c4).Uint64).(*Linear)
		for _, l := range []*Linear{drawn, roundTrip(t, f)} {
			read(l)
			a := l.toep.rows.Load()
			if a == nil {
				t.Fatalf("%s: no matrix after a row read", name)
			}
			if l.A() != a || l.A() != a {
				t.Fatalf("%s: A() returned a second matrix", name)
			}
		}
	}
}

// TestToeplitzRowsFirstUseRace has many goroutines race on a fresh
// draw's first row read (run it under -race): every one must see the
// same published matrix, with the eager construction's rows.
func TestToeplitzRowsFirstUseRace(t *testing.T) {
	const workers = 8
	for i, sh := range lazyRowShapes {
		seed := uint64(0x1d5 + i)
		a, b := eagerToeplitz(sh.n, sh.m, seed)
		f := NewToeplitz(sh.n, sh.m).Draw(stats.NewRNG(seed).Uint64).(*Linear)
		got := make([]*gf2.Matrix, workers)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for w := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				if w%2 == 0 {
					f.ZeroPrefixSystem(sh.m)
				}
				got[w] = f.A()
			}()
		}
		close(start)
		wg.Wait()
		for w := range got {
			if got[w] != got[0] {
				t.Fatalf("n=%d m=%d: worker %d saw a different matrix", sh.n, sh.m, w)
			}
		}
		requireRows(t, fmt.Sprintf("raced n=%d m=%d", sh.n, sh.m), f, a, b)
	}
}
