package oracle

import (
	"testing"

	"mcf0/internal/bitvec"
	"mcf0/internal/formula"
	"mcf0/internal/hash"
	"mcf0/internal/stats"
)

// bruteCell lists Sol(φ ∧ h_m(x) = 0^m) over n ≤ 10 variables in numeric
// order, testing every hash row (an inconsistent prefix system keeps only
// its independent rows, so it cannot serve as the reference).
func bruteCell(n int, eval func(bitvec.BitVec) bool, h *hash.Linear, m int) []bitvec.BitVec {
	var cell []bitvec.BitVec
	for v := uint64(0); v < 1<<uint(n); v++ {
		x := bitvec.FromUint64(v, n)
		if eval(x) && h.PrefixIsZero(x, m) {
			cell = append(cell, x)
		}
	}
	return cell
}

// TestEnumerateKnownDifferential checks Enumerate's known argument on every
// backend against brute force. Each source answers a run of prefix-system
// queries h_m(x) = 0^m with a random subset of the cell as known (empty,
// the whole cell, or each solution with probability 1/2) and a limit of
// −1, 1, exactly |cell \ known| or a random value. Visits must be
// distinct, lie in the cell and miss known; the count must be
// min(limit, |cell \ known|); known solutions must cost no oracle call;
// and a final unconstrained-by-known query on the same source must
// return the whole cell, so the exclusions are scoped to their query.
func TestEnumerateKnownDifferential(t *testing.T) {
	rng := stats.NewRNG(0x4b4e)
	for trial := 0; trial < 60; trial++ {
		n := 4 + rng.Intn(7)
		// Planted, so φ is satisfiable: a solver that has proved φ
		// unsatisfiable answers later queries without a SAT call.
		cnf, _ := formula.PlantedKCNF(n, rng.Intn(3*n), 2+rng.Intn(2), rng)
		dnf := formula.RandomDNF(n, 1+rng.Intn(5), 1+rng.Intn(3), rng)
		h := hash.NewToeplitz(n, n).Draw(rng.Uint64)
		for _, b := range []struct {
			name  string
			src   Source
			eval  func(bitvec.BitVec) bool
			terms int
		}{
			{"cnf", NewCNFSource(cnf), cnf.Eval, 0},
			{"dnf", NewDNFSource(dnf), dnf.Eval, len(dnf.Terms)},
			{"exhaustive", NewExhaustive(n, cnf.Eval), cnf.Eval, 0},
		} {
			for q := 0; q < 8; q++ {
				m := rng.Intn(n + 1)
				cons := h.ZeroPrefixSystem(m)
				cell := bruteCell(n, b.eval, h, m)
				inCell := map[bitvec.Fingerprint]bool{}
				for _, x := range cell {
					inCell[x.Fingerprint()] = true
				}
				var known []bitvec.BitVec
				inKnown := map[bitvec.Fingerprint]bool{}
				mode := rng.Intn(3)
				for _, x := range cell {
					if mode == 1 || mode == 2 && rng.Bool() {
						known = append(known, x)
						inKnown[x.Fingerprint()] = true
					}
				}
				rest := len(cell) - len(known)
				limit := []int{-1, 1, rest, 1 + rng.Intn(rest+2)}[rng.Intn(4)]
				want := rest
				if limit >= 0 && limit < want {
					want = limit
				}

				before := b.src.Queries()
				visited := map[bitvec.Fingerprint]bool{}
				got := b.src.Enumerate(cons, known, limit, func(x bitvec.BitVec) bool {
					fp := x.Fingerprint()
					if visited[fp] || !inCell[fp] || inKnown[fp] {
						t.Fatalf("trial %d %s: visit %v repeated, outside the cell or known", trial, b.name, x)
					}
					visited[fp] = true
					return true
				})
				if got != want || len(visited) != want {
					t.Fatalf("trial %d q %d %s: |cell| %d, |known| %d, limit %d: returned %d, visited %d, want %d",
						trial, q, b.name, len(cell), len(known), limit, got, len(visited), want)
				}

				meter := b.src.Queries() - before
				asked := limit != 0 && cons.Consistent()
				exhausted := limit < 0 || got < limit
				switch b.name {
				case "cnf": // one SAT call per visit, plus the final UNSAT call
					wantMeter := int64(0)
					if asked {
						wantMeter = int64(got)
						if exhausted {
							wantMeter++
						}
					}
					if meter != wantMeter {
						t.Fatalf("trial %d cnf: %d visits (exhausted %v), |known| %d: meter %d, want %d",
							trial, got, exhausted, len(known), meter, wantMeter)
					}
				case "dnf": // one linear solve per term reached
					if !asked && meter != 0 || asked && exhausted && meter != int64(b.terms) || meter > int64(b.terms) {
						t.Fatalf("trial %d dnf: meter %d over %d terms (asked %v, exhausted %v)",
							trial, meter, b.terms, asked, exhausted)
					}
				case "exhaustive": // one sweep per call
					if meter != 1 {
						t.Fatalf("trial %d exhaustive: meter %d, want 1", trial, meter)
					}
				}
			}

			m := rng.Intn(n + 1)
			want := bruteCell(n, b.eval, h, m)
			got := collect(b.src, h.ZeroPrefixSystem(m), -1)
			if len(got) != len(want) {
				t.Fatalf("trial %d %s: later full query found %d of %d", trial, b.name, len(got), len(want))
			}
			for _, x := range want {
				if !got[x.Fingerprint()] {
					t.Fatalf("trial %d %s: later full query misses %v", trial, b.name, x)
				}
			}
		}
	}
}

// TestReleaseKeepsMeterAndStats: Release drops the solver but keeps the
// query meter and the work counters, and a later query rebuilds.
func TestReleaseKeepsMeterAndStats(t *testing.T) {
	cnf := formula.RandomKCNF(10, 20, 3, stats.NewRNG(0x5e1))
	src := NewCNFSource(cnf)
	f := src.Fork().(*CNFSource)
	all := f.Enumerate(nil, nil, -1, func(bitvec.BitVec) bool { return true })
	q, st := f.Queries(), src.SolverStats()
	if f.solver == nil || len(src.forks.live) != 1 || st.Propagations == 0 {
		t.Fatalf("before release: solver %v, %d live, stats %+v", f.solver != nil, len(src.forks.live), st)
	}
	f.Release()
	if f.solver != nil || len(src.forks.live) != 0 || f.Queries() != q || src.SolverStats() != st {
		t.Fatalf("after release: solver %v, %d live, meter %d (was %d), stats %+v (were %+v)",
			f.solver != nil, len(src.forks.live), f.Queries(), q, src.SolverStats(), st)
	}
	if again := f.Enumerate(nil, nil, -1, func(bitvec.BitVec) bool { return true }); again != all {
		t.Fatalf("after release: %d solutions, want %d", again, all)
	}
}
