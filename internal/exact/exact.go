// Package exact provides ground-truth model counters used to validate the
// approximate algorithms and to anchor every experiment: exhaustive
// enumeration for small n, a counting DPLL for CNF at moderate n,
// inclusion–exclusion for DNF (and weighted DNF) with few terms.
package exact

import (
	"mcf0/internal/bitvec"
	"mcf0/internal/formula"
)

// Exhaustive counts satisfying assignments of an arbitrary predicate over
// {0,1}^n by full enumeration. Practical for n ≤ 24.
func Exhaustive(n int, eval func(bitvec.BitVec) bool) uint64 {
	if n > 30 {
		panic("exact: exhaustive enumeration beyond 2^30")
	}
	var count uint64
	for v := uint64(0); v < 1<<uint(n); v++ {
		if eval(bitvec.FromUint64(v, n)) {
			count++
		}
	}
	return count
}

// CountCNF returns |Sol(φ)| for a CNF formula using a counting DPLL with
// unit propagation and free-variable multiplication. Exponential in the
// worst case, practical well past exhaustive range on structured inputs.
func CountCNF(c *formula.CNF) uint64 {
	d := &dpll{n: c.N}
	for _, cl := range c.Clauses {
		if len(cl) == 0 {
			return 0
		}
		lits := make([]int, len(cl))
		for i, l := range cl {
			lits[i] = l.Var<<1 | boolBit(l.Neg)
		}
		d.clauses = append(d.clauses, lits)
	}
	d.assign = make([]int8, c.N)
	return d.count()
}

func boolBit(b bool) int {
	if b {
		return 1
	}
	return 0
}

// dpll is a simple counting DPLL: assignment values are 0 (unset), 1
// (true), 2 (false).
type dpll struct {
	n       int
	clauses [][]int
	assign  []int8
}

func (d *dpll) litVal(l int) int8 {
	v := d.assign[l>>1]
	if v == 0 {
		return 0
	}
	if l&1 == 1 { // negative literal
		if v == 1 {
			return 2
		}
		return 1
	}
	return v
}

// count counts extensions of the current partial assignment.
func (d *dpll) count() uint64 {
	// Unit propagation with trail for undo.
	var trail []int
	undo := func() {
		for _, v := range trail {
			d.assign[v] = 0
		}
	}
	for {
		unit := -1
		for _, cl := range d.clauses {
			unassigned := -1
			nUnassigned := 0
			satisfied := false
			for _, l := range cl {
				switch d.litVal(l) {
				case 1:
					satisfied = true
				case 0:
					nUnassigned++
					unassigned = l
				}
				if satisfied {
					break
				}
			}
			if satisfied {
				continue
			}
			if nUnassigned == 0 {
				undo()
				return 0 // falsified clause
			}
			if nUnassigned == 1 {
				unit = unassigned
				break
			}
		}
		if unit < 0 {
			break
		}
		v := unit >> 1
		if unit&1 == 1 {
			d.assign[v] = 2
		} else {
			d.assign[v] = 1
		}
		trail = append(trail, v)
	}
	// Pick a branching variable occurring in an unsatisfied clause.
	branch := -1
	anyUnsat := false
	for _, cl := range d.clauses {
		satisfied := false
		for _, l := range cl {
			if d.litVal(l) == 1 {
				satisfied = true
				break
			}
		}
		if satisfied {
			continue
		}
		anyUnsat = true
		for _, l := range cl {
			if d.litVal(l) == 0 {
				branch = l >> 1
				break
			}
		}
		if branch >= 0 {
			break
		}
	}
	if !anyUnsat {
		// All clauses satisfied: every unassigned variable is free.
		free := 0
		for _, a := range d.assign {
			if a == 0 {
				free++
			}
		}
		undo()
		return 1 << uint(free)
	}
	var total uint64
	d.assign[branch] = 1
	total += d.count()
	d.assign[branch] = 2
	total += d.count()
	d.assign[branch] = 0
	undo()
	return total
}

// CountDNF returns |Sol(φ)| for a DNF formula by inclusion–exclusion over
// term subsets: |∪Tᵢ| = Σ_{∅≠S} (−1)^{|S|+1} |∩_{i∈S} Tᵢ|, where a
// consistent intersection of terms fixing f variables has 2^(n−f)
// solutions. Exponential in the number of terms; practical for ≤ 20 terms.
// For more terms, use the approximate counters this package validates.
func CountDNF(d *formula.DNF) uint64 {
	k := len(d.Terms)
	if k > 24 {
		panic("exact: inclusion-exclusion beyond 24 terms")
	}
	var total int64
	for mask := uint64(1); mask < 1<<uint(k); mask++ {
		fixed, consistent := intersectTerms(d, mask)
		if !consistent {
			continue
		}
		cnt := int64(1) << uint(d.N-fixed)
		if popcount(mask)%2 == 1 {
			total += cnt
		} else {
			total -= cnt
		}
	}
	return uint64(total)
}

// intersectTerms conjoins the terms selected by mask, returning the number
// of fixed variables and whether the conjunction is consistent.
func intersectTerms(d *formula.DNF, mask uint64) (int, bool) {
	val := map[int]bool{}
	for i := 0; i < len(d.Terms); i++ {
		if mask&(1<<uint(i)) == 0 {
			continue
		}
		for _, l := range d.Terms[i] {
			want := !l.Neg
			if prev, ok := val[l.Var]; ok {
				if prev != want {
					return 0, false
				}
			} else {
				val[l.Var] = want
			}
		}
	}
	return len(val), true
}

func popcount(x uint64) int {
	c := 0
	for ; x != 0; x &= x - 1 {
		c++
	}
	return c
}

// WeightFunc assigns each variable i a probability ρ(xᵢ) = Num[i] / 2^Bits[i]
// of being true, as in the weighted counting setting of Section 5.
type WeightFunc struct {
	Num  []uint64
	Bits []int
}

// Validate checks 0 < Num[i] < 2^Bits[i] for all i (weights strictly inside
// (0,1), as the paper requires).
func (w WeightFunc) Validate(n int) bool {
	if len(w.Num) != n || len(w.Bits) != n {
		return false
	}
	for i := range w.Num {
		if w.Bits[i] < 1 || w.Bits[i] > 62 {
			return false
		}
		if w.Num[i] == 0 || w.Num[i] >= 1<<uint(w.Bits[i]) {
			return false
		}
	}
	return true
}

// Rho returns ρ(xᵢ) as a float64.
func (w WeightFunc) Rho(i int) float64 {
	return float64(w.Num[i]) / float64(uint64(1)<<uint(w.Bits[i]))
}

// WeightedCountDNF returns W(φ) = Σ_{σ ⊨ φ} W(σ) by inclusion–exclusion:
// the weight of a term's solution cube is the product of its fixed
// literals' probabilities (free variables integrate to 1).
func WeightedCountDNF(d *formula.DNF, w WeightFunc) float64 {
	if !w.Validate(d.N) {
		panic("exact: invalid weight function")
	}
	k := len(d.Terms)
	if k > 24 {
		panic("exact: inclusion-exclusion beyond 24 terms")
	}
	total := 0.0
	for mask := uint64(1); mask < 1<<uint(k); mask++ {
		weight, consistent := termIntersectionWeight(d, mask, w)
		if !consistent {
			continue
		}
		if popcount(mask)%2 == 1 {
			total += weight
		} else {
			total -= weight
		}
	}
	return total
}

func termIntersectionWeight(d *formula.DNF, mask uint64, w WeightFunc) (float64, bool) {
	val := map[int]bool{}
	for i := 0; i < len(d.Terms); i++ {
		if mask&(1<<uint(i)) == 0 {
			continue
		}
		for _, l := range d.Terms[i] {
			want := !l.Neg
			if prev, ok := val[l.Var]; ok {
				if prev != want {
					return 0, false
				}
			} else {
				val[l.Var] = want
			}
		}
	}
	weight := 1.0
	for v, isTrue := range val {
		if isTrue {
			weight *= w.Rho(v)
		} else {
			weight *= 1 - w.Rho(v)
		}
	}
	return weight, true
}
