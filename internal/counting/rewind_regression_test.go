package counting

import (
	"fmt"
	"testing"

	"mcf0/internal/bitvec"
	"mcf0/internal/formula"
	"mcf0/internal/gf2"
	"mcf0/internal/hash"
	"mcf0/internal/kmv"
	"mcf0/internal/stats"
)

// cloneFindMinDNF is the pre-rewind reference: per term, every prefix probe
// clones the base system and replays the prefix (exactly what FindMinDNF
// did before gf2.System gained Mark/Rewind). The production path must stay
// bit-identical to it.
func cloneFindMinDNF(d *formula.DNF, h *hash.Linear, p int) []bitvec.BitVec {
	acc := kmv.New(h.OutBits(), p)
	for _, t := range d.Terms {
		norm, ok := t.Normalize()
		if !ok {
			continue
		}
		fixed, val := formula.TermFixed(d.N, norm)
		free := make([]bool, d.N)
		for i := range free {
			free[i] = !fixed[i]
		}
		aFree := h.A().SelectColumns(free)
		offset := h.A().MulVec(val).Xor(h.B)
		lexMin := func(prefix []bool) (bitvec.BitVec, bool) {
			m := aFree.Rows()
			sys := gf2.NewSystem(aFree.Cols())
			y := bitvec.New(m)
			for i, bit := range prefix {
				sys.Add(aFree.Row(i), bit != offset.Get(i))
				if !sys.Consistent() {
					return bitvec.BitVec{}, false
				}
				if bit {
					y.Set(i, true)
				}
			}
			scratch := bitvec.New(aFree.Cols())
			for i := len(prefix); i < m; i++ {
				rr := sys.ResidualInto(aFree.Row(i), offset.Get(i), scratch)
				if scratch.IsZero() {
					if rr {
						y.Set(i, true)
					}
					continue
				}
				sys.AddPrereduced(scratch, rr)
			}
			return y, true
		}
		cur, found := lexMin(nil)
		for found && acc.Candidate(cur) {
			acc.Insert(cur)
			m := aFree.Rows()
			next := bitvec.BitVec{}
			found = false
			for r := m - 1; r >= 0 && !found; r-- {
				if cur.Get(r) {
					continue
				}
				prefix := make([]bool, r+1)
				for i := 0; i < r; i++ {
					prefix[i] = cur.Get(i)
				}
				prefix[r] = true
				next, found = lexMin(prefix)
			}
			cur = next
		}
	}
	return acc.Values()
}

// TestFindMinDNFMatchesCloneReference is the fixed-seed rewind-vs-clone
// differential for the Proposition 2 kernel across widths straddling word
// boundaries.
func TestFindMinDNFMatchesCloneReference(t *testing.T) {
	for _, n := range []int{8, 16, 21, 22, 24} {
		n := n
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			t.Parallel()
			for seed := uint64(1); seed <= 8; seed++ {
				rng := stats.NewRNG(0xf1d<<10 ^ seed<<3 ^ uint64(n))
				d := formula.RandomDNF(n, 2+rng.Intn(8), 1+rng.Intn(n/2), rng)
				h := hash.NewToeplitz(n, 3*n).Draw(rng.Uint64)
				p := 1 + rng.Intn(24)
				got := findMinDNFValues(d, h, p)
				want := cloneFindMinDNF(d, h, p)
				if len(got) != len(want) {
					t.Fatalf("seed %d p %d: %d values, want %d", seed, p, len(got), len(want))
				}
				for i := range got {
					if !got[i].Equal(want[i]) {
						t.Fatalf("seed %d p %d: value %d = %v, want %v", seed, p, i, got[i], want[i])
					}
				}
			}
		})
	}
}
