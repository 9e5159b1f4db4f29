package sat

import (
	"testing"

	"mcf0/internal/bitvec"
	"mcf0/internal/exact"
	"mcf0/internal/formula"
	"mcf0/internal/stats"
)

// TestEnumerateBlockingStorage: EnumerateBlocking hands out vectors the
// caller may keep. Every kept vector must still hold its model after the
// enumeration and after a later one on the same solver, no two may share
// words, each one's words must have no spare capacity to append into, and
// the excess high bits of its last word must be zero, even with true
// variables past n. The models must be exactly those exact.Exhaustive
// lists (the first limit of them).
//
// Variables past the first k are tied to the core ones, alternately
// negated, so n reaches past one and two words while the exhaustive count
// over the k core variables still lists every model.
func TestEnumerateBlockingStorage(t *testing.T) {
	rng := stats.NewRNG(631)
	for _, n := range []int{1, 20, 63, 64, 65, 130} {
		k := min(n, 12)
		core := formula.NewCNF(k)
		if k >= 3 {
			core = formula.RandomKCNF(k, 8, 3, rng)
		}
		cnf := formula.NewCNF(n)
		for _, cl := range core.Clauses {
			cnf.AddClause(cl)
		}
		for v := k; v < n; v++ {
			c, neg := v%k, v%2 == 1 // x_v = x_c ⊕ neg
			cnf.AddClause(formula.Clause{{Var: v, Neg: true}, {Var: c, Neg: neg}})
			cnf.AddClause(formula.Clause{{Var: v}, {Var: c, Neg: !neg}})
		}
		want := map[string]bool{}
		exact.Exhaustive(k, func(y bitvec.BitVec) bool {
			if !core.Eval(y) {
				return false
			}
			x := bitvec.New(n)
			for v := 0; v < n; v++ {
				x.Set(v, y.Get(v%k) != (v >= k && v%2 == 1))
			}
			if !cnf.Eval(x) {
				t.Fatalf("n=%d: lifted model %v violates the formula", n, x)
			}
			want[x.String()] = true
			return true
		})
		if n > 1 && len(want) <= 300 {
			t.Fatalf("n=%d: %d models, want more than the largest limit", n, len(want))
		}
		for _, limit := range []int{-1, 1, 7, 300} {
			s := New(n)
			for _, cl := range cnf.Clauses {
				s.AddClause(cl)
			}
			// Variables past n that are true, as the oracle's retired
			// selectors are, must not leak into the excess bits.
			for range 2 {
				s.AddClause([]formula.Lit{{Var: s.AddVar()}})
			}
			var kept, copies []bitvec.BitVec
			count, _ := s.EnumerateBlocking(limit, n, nil, func(x bitvec.BitVec) bool {
				kept = append(kept, x)
				copies = append(copies, x.Clone())
				return true
			})
			wantCount := len(want)
			if limit >= 0 {
				wantCount = min(limit, len(want))
			}
			if count != wantCount || len(kept) != wantCount {
				t.Fatalf("n=%d limit=%d: %d models (%d visits), want %d", n, limit, count, len(kept), wantCount)
			}
			// A later enumeration on the same solver must not touch them.
			s.EnumerateBlocking(-1, n, nil, func(bitvec.BitVec) bool { return true })
			seen := map[string]bool{}
			for i, x := range kept {
				w := x.Words()
				if !x.Equal(copies[i]) {
					t.Fatalf("n=%d limit=%d: model %d changed from %v to %v", n, limit, i, copies[i], x)
				}
				if cap(w) != len(w) {
					t.Fatalf("n=%d limit=%d: model %d has %d spare words of capacity", n, limit, i, cap(w)-len(w))
				}
				if r := uint(n) % 64; r != 0 && w[len(w)-1]>>r != 0 {
					t.Fatalf("n=%d limit=%d: model %d has excess high bits %#x", n, limit, i, w[len(w)-1]>>r)
				}
				key := x.String()
				if !want[key] || seen[key] {
					t.Fatalf("n=%d limit=%d: model %d (%v) is not a model or is repeated", n, limit, i, x)
				}
				seen[key] = true
			}
			// No two kept vectors share a word: stamp each one's words
			// with its index, then read every stamp back.
			for i, x := range kept {
				w := x.Words()
				for j := range w {
					w[j] = uint64(i)
				}
			}
			for i, x := range kept {
				for _, w := range x.Words() {
					if w != uint64(i) {
						t.Fatalf("n=%d limit=%d: model %d shares words with model %d", n, limit, i, w)
					}
				}
			}
		}
	}
}
