package gf2

import (
	"math/rand"
	"sort"
	"testing"

	"mcf0/internal/bitvec"
)

func randVec(n int, rng *rand.Rand) bitvec.BitVec {
	return bitvec.Random(n, rng.Uint64)
}

func TestMulVecLinearity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 100; trial++ {
		rows, cols := 1+rng.Intn(20), 1+rng.Intn(20)
		m := RandomMatrix(rows, cols, rng.Uint64)
		x, y := randVec(cols, rng), randVec(cols, rng)
		// M(x+y) = Mx + My
		if !m.MulVec(x.Xor(y)).Equal(m.MulVec(x).Xor(m.MulVec(y))) {
			t.Fatal("MulVec not linear")
		}
	}
}

// TestMulVecIntoMatchesRowDots checks the slab product against one
// Row(i).Dot(x) per row, over shapes that run the stride-1 loop (64-bit
// output chunks, full and partial), the stride-4 loop and the general
// loop, on matrices from RandomMatrix, SelectColumns and row-by-row fills.
// A one-word matrix of at most 64 rows checks MulWord as well.
func TestMulVecIntoMatchesRowDots(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, cols := range []int{0, 1, 63, 64, 65, 200, 256, 257} {
		for _, rows := range []int{1, 63, 64, 65, 130} {
			keep := make([]bool, cols+rng.Intn(70))
			for kept := 0; kept < cols; {
				if c := rng.Intn(len(keep)); !keep[c] {
					keep[c] = true
					kept++
				}
			}
			filled := NewMatrix(rows, cols)
			for i := 0; i < rows; i++ {
				for j := 0; j < cols; j++ {
					filled.Row(i).Set(j, rng.Intn(2) == 1)
				}
			}
			for _, c := range []struct {
				name string
				m    *Matrix
			}{
				{"random", RandomMatrix(rows, cols, rng.Uint64)},
				{"selected", RandomMatrix(rows, len(keep), rng.Uint64).SelectColumns(keep)},
				{"filled", filled},
			} {
				for trial := 0; trial < 4; trial++ {
					x := randVec(cols, rng)
					got := bitvec.Random(rows, rng.Uint64) // MulVecInto overwrites it
					c.m.MulVecInto(x, got)
					for i := 0; i < rows; i++ {
						if got.Get(i) != c.m.Row(i).Dot(x) {
							t.Fatalf("%s %dx%d: output bit %d differs from the row dot product", c.name, rows, cols, i)
						}
					}
					if cols >= 1 && cols <= 64 && rows <= 64 {
						if w := c.m.MulWord(x.Words()[0]); w != got.Words()[0] {
							t.Fatalf("%s %dx%d: MulWord = %#x, MulVecInto = %#x", c.name, rows, cols, w, got.Words()[0])
						}
					}
				}
			}
		}
	}
}

func TestSystemAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 300; trial++ {
		cols := 1 + rng.Intn(10)
		rows := rng.Intn(12)
		m := RandomMatrix(rows, cols, rng.Uint64)
		rhs := randVec(rows, rng)
		sys := NewSystem(cols)
		for i := 0; i < rows; i++ {
			sys.Add(m.Row(i), rhs.Get(i))
		}
		// Brute force: count x with Mx = rhs.
		want := 0
		var witness bitvec.BitVec
		for v := uint64(0); v < 1<<uint(cols); v++ {
			x := bitvec.FromUint64(v, cols)
			if m.MulVec(x).Equal(rhs) {
				if want == 0 {
					witness = x
				}
				want++
			}
		}
		if sys.Consistent() != (want > 0) {
			t.Fatalf("consistency mismatch: sys=%v brute=%d", sys.Consistent(), want)
		}
		if want == 0 {
			continue
		}
		if got := sys.SolutionCountCapped(1 << 20); got != want {
			t.Fatalf("solution count: got %d want %d (cols=%d rows=%d)", got, want, cols, rows)
		}
		x0, ok := sys.Solve()
		if !ok || !m.MulVec(x0).Equal(rhs) {
			t.Fatalf("Solve returned non-solution %v (witness %v)", x0, witness)
		}
		// Every null basis vector must map to zero.
		for _, nb := range sys.NullBasis() {
			if !m.MulVec(nb).IsZero() {
				t.Fatal("null basis vector not in kernel")
			}
		}
		// Enumeration must yield exactly the solution set, no duplicates.
		seen := map[string]bool{}
		sys.EnumerateSolutions(-1, func(x bitvec.BitVec) bool {
			if !m.MulVec(x).Equal(rhs) {
				t.Fatal("enumerated non-solution")
			}
			if seen[x.Key()] {
				t.Fatal("duplicate solution enumerated")
			}
			seen[x.Key()] = true
			return true
		})
		if len(seen) != want {
			t.Fatalf("enumerated %d solutions, want %d", len(seen), want)
		}
	}
}

func TestEnumerateLimit(t *testing.T) {
	sys := NewSystem(10) // unconstrained: 1024 solutions
	count := 0
	sys.EnumerateSolutions(17, func(bitvec.BitVec) bool { count++; return true })
	if count != 17 {
		t.Fatalf("limit ignored: visited %d", count)
	}
	count = 0
	sys.EnumerateSolutions(-1, func(bitvec.BitVec) bool { count++; return count < 5 })
	if count != 5 {
		t.Fatalf("early stop ignored: visited %d", count)
	}
}

func TestRankMatchesBruteImageSize(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		rows, cols := 1+rng.Intn(8), 1+rng.Intn(8)
		m := RandomMatrix(rows, cols, rng.Uint64)
		img := map[string]bool{}
		for v := uint64(0); v < 1<<uint(cols); v++ {
			img[m.MulVec(bitvec.FromUint64(v, cols)).Key()] = true
		}
		if got, want := 1<<uint(m.Rank()), len(img); got != want {
			t.Fatalf("2^rank=%d but image size %d", got, want)
		}
	}
}

// bruteImage computes sorted image {Ax+b : x sat cons} exhaustively.
func bruteImage(a *Matrix, b bitvec.BitVec, cons *System) []bitvec.BitVec {
	seen := map[string]bitvec.BitVec{}
	n := a.Cols()
	for v := uint64(0); v < 1<<uint(n); v++ {
		x := bitvec.FromUint64(v, n)
		if cons != nil {
			ok := true
			res, rr := cons.Residual(x, false)
			_ = res
			_ = rr
			// check constraints by substitution instead: every pivot row
			// of cons must hold.
			ok = consHolds(cons, x)
			if !ok {
				continue
			}
		}
		y := a.MulVec(x).Xor(b)
		seen[y.Key()] = y
	}
	out := make([]bitvec.BitVec, 0, len(seen))
	for _, y := range seen {
		out = append(out, y)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

func consHolds(cons *System, x bitvec.BitVec) bool {
	if !cons.Consistent() {
		return false
	}
	for _, p := range cons.pivots {
		if p.a.Dot(x) != p.rhs {
			return false
		}
	}
	return true
}

func TestImageSearcherKMinAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 200; trial++ {
		cols := 1 + rng.Intn(8)
		rows := 1 + rng.Intn(10)
		a := RandomMatrix(rows, cols, rng.Uint64)
		b := randVec(rows, rng)
		var cons *System
		if rng.Intn(2) == 0 {
			cons = NewSystem(cols)
			for i, k := 0, rng.Intn(3); i < k; i++ {
				cons.Add(randVec(cols, rng), rng.Intn(2) == 0)
			}
		}
		want := bruteImage(a, b, cons)
		s := NewImageSearcher(a, b, cons)
		k := 1 + rng.Intn(10)
		got := s.KMin(k)
		wantK := want
		if len(wantK) > k {
			wantK = wantK[:k]
		}
		if len(got) != len(wantK) {
			t.Fatalf("KMin(%d) returned %d elements, want %d", k, len(got), len(wantK))
		}
		for i := range got {
			if !got[i].Equal(wantK[i]) {
				t.Fatalf("KMin[%d] = %v, want %v", i, got[i], wantK[i])
			}
		}
		// Contains must agree with membership for a few probes.
		for probe := 0; probe < 10; probe++ {
			y := randVec(rows, rng)
			inBrute := false
			for _, w := range want {
				if w.Equal(y) {
					inBrute = true
					break
				}
			}
			if s.Contains(y) != inBrute {
				t.Fatalf("Contains(%v) = %v, brute = %v", y, s.Contains(y), inBrute)
			}
		}
	}
}

func TestImageSearcherPrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 100; trial++ {
		cols := 1 + rng.Intn(6)
		rows := 2 + rng.Intn(8)
		a := RandomMatrix(rows, cols, rng.Uint64)
		b := randVec(rows, rng)
		s := NewImageSearcher(a, b, nil)
		img := bruteImage(a, b, nil)
		plen := rng.Intn(rows + 1)
		prefix := make([]bool, plen)
		for i := range prefix {
			prefix[i] = rng.Intn(2) == 0
		}
		var want bitvec.BitVec
		found := false
		for _, y := range img {
			match := true
			for i, p := range prefix {
				if y.Get(i) != p {
					match = false
					break
				}
			}
			if match {
				want, found = y, true
				break
			}
		}
		got, ok := s.LexMinWithPrefix(prefix)
		if ok != found {
			t.Fatalf("prefix feasibility mismatch: got %v want %v", ok, found)
		}
		if found && !got.Equal(want) {
			t.Fatalf("LexMinWithPrefix = %v, want %v", got, want)
		}
	}
}

func TestSelectColumns(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	m := RandomMatrix(5, 8, rng.Uint64)
	keep := []bool{true, false, true, true, false, false, true, false}
	s := m.SelectColumns(keep)
	if s.Cols() != 4 || s.Rows() != 5 {
		t.Fatalf("shape %dx%d", s.Rows(), s.Cols())
	}
	for i := 0; i < 5; i++ {
		j := 0
		for c := 0; c < 8; c++ {
			if keep[c] {
				if s.Row(i).Get(j) != m.Row(i).Get(c) {
					t.Fatal("column selection scrambled entries")
				}
				j++
			}
		}
	}
}

func TestInconsistentSystem(t *testing.T) {
	sys := NewSystem(3)
	v := bitvec.FromString("101")
	sys.Add(v, false)
	sys.Add(v, true) // contradiction
	if sys.Consistent() {
		t.Fatal("contradictory system reported consistent")
	}
	if _, ok := sys.Solve(); ok {
		t.Fatal("Solve succeeded on inconsistent system")
	}
	if sys.SolutionCountCapped(100) != 0 {
		t.Fatal("inconsistent system has nonzero count")
	}
	called := false
	sys.EnumerateSolutions(-1, func(bitvec.BitVec) bool { called = true; return true })
	if called {
		t.Fatal("enumeration visited solutions of inconsistent system")
	}
}

// LexMinWithPrefix returns the lexicographically smallest element of the
// image whose first len(prefix) bits equal prefix, and whether one exists.
func (s *ImageSearcher) LexMinWithPrefix(prefix []bool) (bitvec.BitVec, bool) {
	y := bitvec.New(s.a.Rows())
	if !s.LexMinWithPrefixInto(prefix, y) {
		return bitvec.BitVec{}, false
	}
	return y, true
}

// Min returns the lexicographically smallest image element.
func (s *ImageSearcher) Min() (bitvec.BitVec, bool) {
	return s.LexMinWithPrefix(nil)
}

// Successor returns the smallest image element strictly greater than y, and
// whether one exists.
func (s *ImageSearcher) Successor(y bitvec.BitVec) (bitvec.BitVec, bool) {
	next := bitvec.New(s.a.Rows())
	if !s.SuccessorInto(y, next) {
		return bitvec.BitVec{}, false
	}
	return next, true
}

// EnumerateImage visits image elements in increasing lexicographic order,
// up to limit of them (limit < 0 means all; beware 2^rank image sizes).
// visit returning false stops the walk early; the walk's count is returned.
// The vector passed to visit is reused between calls — Clone it to retain.
func (s *ImageSearcher) EnumerateImage(limit int, visit func(bitvec.BitVec) bool) int {
	if limit == 0 {
		return 0
	}
	count := 0
	cur := bitvec.New(s.a.Rows())
	ok := s.MinInto(cur)
	for ok {
		count++
		if !visit(cur) {
			break
		}
		if limit >= 0 && count >= limit {
			break
		}
		ok = s.SuccessorInto(cur, cur)
	}
	return count
}

// KMin returns the k lexicographically smallest elements of the image in
// increasing order (fewer if the image is smaller); k ≤ 0 yields none. The
// returned vectors are freshly allocated and independent of the searcher.
func (s *ImageSearcher) KMin(k int) []bitvec.BitVec {
	if k <= 0 {
		return nil
	}
	var out []bitvec.BitVec
	s.EnumerateImage(k, func(y bitvec.BitVec) bool {
		out = append(out, y.Clone())
		return true
	})
	return out
}

// Contains reports whether y is in the image. Membership is feasibility of
// the full-length prefix y, so the check shares the rewind machinery (and
// its cost profile) with LexMinWithPrefix.
func (s *ImageSearcher) Contains(y bitvec.BitVec) bool {
	m := s.a.Rows()
	if y.Len() != m {
		panic("gf2: width mismatch")
	}
	if cap(s.prefixBuf) < m {
		s.prefixBuf = make([]bool, m)
	}
	buf := s.prefixBuf[:m]
	for i := 0; i < m; i++ {
		buf[i] = y.Get(i)
	}
	return s.ps.ExtendTo(buf)
}

// Rank computes the GF(2) rank.
func (m *Matrix) Rank() int {
	s := NewSystem(m.cols)
	for i := 0; i < m.rows; i++ {
		s.Add(m.Row(i), false)
	}
	return s.Rank()
}

// SolutionCountCapped returns min(cap, number of solutions). cap must be
// non-negative.
func (s *System) SolutionCountCapped(cap int) int {
	if s.inconsistent {
		return 0
	}
	d := s.cols - len(s.pivots)
	if d >= 63 {
		return cap
	}
	n := uint64(1) << uint(d)
	if uint64(cap) < n {
		return cap
	}
	return int(n)
}

// Residual returns the reduced form of (a, rhs) against the current basis
// without mutating the system. If the reduced row is zero, the equation is
// implied (rhs false) or contradicted (rhs true).
func (s *System) Residual(a bitvec.BitVec, rhs bool) (bitvec.BitVec, bool) {
	if a.Len() != s.cols {
		panic("gf2: row width mismatch")
	}
	r := a.Clone()
	rr := s.reduceWords(r.Words(), rhs)
	return r, rr
}
