package counting

import (
	"math"
	"testing"

	"mcf0/internal/bitvec"
	"mcf0/internal/exact"
	"mcf0/internal/formula"
	"mcf0/internal/hash"
	"mcf0/internal/oracle"
	"mcf0/internal/stats"
)

// TestApproxMCPoolDeterminism checks the complete-pool closed form against
// the oracle searches it replaces. On CNF and DNF formulas with fewer
// than 2·Thresh models ApproxMC answers every trial from the pool, with
// no oracle call past level 0. Each trial's (m, c) must equal what
// searchPrefixLinear and searchPrefixBinary locate on the oracle from the
// inputs they took before the pool existed: c0 = min(Thresh, |Sol|) and
// the level-0 solutions truncated to Thresh. Thresh is drawn on both
// sides of |Sol|, and the sweep must include trials whose singular h
// keeps Thresh models in h⁻¹(0), so the search ends at the cap m = n.
func TestApproxMCPoolDeterminism(t *testing.T) {
	rng := stats.NewRNG(0x9001)
	capped := map[string]int{}
	for k := 0; k < 200; k++ {
		n := 3 + rng.Intn(6)
		kind := []string{"cnf", "dnf"}[k%2]
		var src func() oracle.Source
		var models int
		if kind == "cnf" {
			c := formula.RandomKCNF(n, rng.Intn(4*n), 2+rng.Intn(2), rng)
			src, models = func() oracle.Source { return oracle.NewCNFSource(c) }, int(exact.CountCNF(c))
		} else {
			d := formula.RandomDNF(n, 1+rng.Intn(3), 1+rng.Intn(n), rng)
			src, models = func() oracle.Source { return oracle.NewDNFSource(d) }, int(exact.CountDNF(d))
		}
		thresh := models/2 + 1 + rng.Intn(models/2+2)
		opts := Options{Thresh: thresh, Iterations: 9, RNG: stats.NewRNG(uint64(k)), Parallelism: 1 + k%3}
		res := ApproxMC(src(), opts)

		// The pool and its meter: the count's only oracle calls.
		level0 := src()
		h0 := hash.NewToeplitz(n, n).Draw(stats.NewRNG(uint64(k)).Uint64)
		if got, pool := BoundedSAT(level0, h0, 0, 2*thresh); got != models || len(pool) != models {
			t.Fatalf("case %d (%s): pool of %d, want all %d models", k, kind, got, models)
		}
		if res.OracleQueries != level0.Queries() {
			t.Errorf("case %d (%s): %d oracle queries, level 0 alone costs %d",
				k, kind, res.OracleQueries, level0.Queries())
		}
		_, pool := BoundedSAT(src(), h0, 0, 2*thresh)
		c0, sols0 := BoundedSAT(src(), h0, 0, thresh)

		draw := stats.NewRNG(uint64(k))
		hist := make([]int, n+1)
		for i := range res.PerIteration {
			h := hash.NewToeplitz(n, n).Draw(draw.Uint64)
			m, c := prefixFromPoolUnbatched(h, pool, thresh)
			mL, cL := searchPrefixLinear(src(), h, thresh, c0, sols0)
			mB, cB := searchPrefixBinary(src(), h, thresh, c0, sols0)
			if m != mL || c != cL || m != mB || c != cB {
				t.Fatalf("case %d (%s) trial %d, n=%d thresh %d: pool (m=%d, c=%d), linear (%d, %d), binary (%d, %d)",
					k, kind, i, n, thresh, m, c, mL, cL, mB, cB)
			}
			if want := float64(c) * math.Pow(2, float64(m)); res.PerIteration[i] != want {
				t.Fatalf("case %d (%s) trial %d: ApproxMC estimate %g, pool %g", k, kind, i, res.PerIteration[i], want)
			}
			if mW, cW := prefixFromPool(h, pool, poolWords(pool, n), thresh, hist, bitvec.New(n), make([]uint64, len(pool)), make([]int, len(pool))); mW != m || cW != c {
				t.Fatalf("case %d (%s) trial %d: batched pool hash (m=%d, c=%d), ZeroPrefixLen (%d, %d)", k, kind, i, mW, cW, m, c)
			}
			if m == n && c == thresh {
				capped[kind]++
			}
		}
	}
	if capped["cnf"] == 0 || capped["dnf"] == 0 {
		t.Errorf("trials ending at m = n with Thresh models left: %v; want some for CNF and DNF", capped)
	}

	// The batched pool hash at the word's edges and its fallbacks: every
	// trial's (m, c) from one PrefixWords call per trial must equal the
	// ZeroPrefixLen form's, and ApproxMC's estimates must follow it at
	// every parallelism. Toeplitz draws at n ≤ 64 take the batch; H_xor
	// draws and n = 65 have no batch kernel and take ZeroPrefixLen.
	for _, tc := range []struct {
		n       int
		xor     bool
		batched bool
	}{{1, false, true}, {20, false, true}, {63, false, true}, {64, false, true}, {20, true, false}, {65, false, false}} {
		for k := 0; k < 4; k++ {
			n := tc.n
			d := formula.RandomDNF(n, 1+rng.Intn(3), max(1, n-3), rng)
			models := int(exact.CountDNF(d))
			thresh := models/2 + 1 + rng.Intn(models/2+1)
			fam := hash.Family(hash.NewToeplitz(n, n))
			if tc.xor {
				fam = hash.NewXor(n, n)
			}
			var pool []bitvec.BitVec
			oracle.NewDNFSource(d).Enumerate(nil, nil, 2*thresh, func(x bitvec.BitVec) bool {
				pool = append(pool, x)
				return true
			})
			if len(pool) != models {
				t.Fatalf("n=%d %s: pool of %d, want all %d models", n, fam.Name(), len(pool), models)
			}
			xw, hist, ys, idx := poolWords(pool, n), make([]int, n+1), make([]uint64, len(pool)), make([]int, len(pool))
			for _, par := range []int{1, 2, 4} {
				seed := uint64(1000*n + k)
				res := ApproxMC(oracle.NewDNFSource(d), Options{Thresh: thresh, Iterations: 9, RNG: stats.NewRNG(seed), Parallelism: par}, Variant{Family: fam})
				draw := stats.NewRNG(seed)
				for i := range res.PerIteration {
					h := fam.Draw(draw.Uint64)
					if _, ok := h.PrefixWords(n, 0, nil, nil, nil); ok != tc.batched {
						t.Fatalf("n=%d %s: batch kernel %v, want %v", n, fam.Name(), !tc.batched, tc.batched)
					}
					m, c := prefixFromPoolUnbatched(h, pool, thresh)
					if mW, cW := prefixFromPool(h, pool, xw, thresh, hist, bitvec.New(n), ys, idx); mW != m || cW != c {
						t.Fatalf("n=%d %s trial %d: batched pool hash (m=%d, c=%d), ZeroPrefixLen (%d, %d)", n, fam.Name(), i, mW, cW, m, c)
					}
					if want := float64(c) * math.Pow(2, float64(m)); res.PerIteration[i] != want {
						t.Fatalf("n=%d %s trial %d parallelism %d: ApproxMC estimate %g, pool %g", n, fam.Name(), i, par, res.PerIteration[i], want)
					}
				}
			}
		}
	}
}

// prefixFromPoolUnbatched is prefixFromPool with every member hashed by
// ZeroPrefixLen, the reference for the batched pool hash.
func prefixFromPoolUnbatched(h *hash.Linear, pool []bitvec.BitVec, thresh int) (int, int) {
	n := h.InBits()
	return prefixFromPool(h, pool, nil, thresh, make([]int, n+1), bitvec.New(n), nil, nil)
}
