// Package oracle abstracts the "NP oracle" of the paper behind interfaces
// the model-counting algorithms consume, with per-query metering so
// experiments can report oracle-call counts (the paper's complexity
// currency) independent of the solver's wall-clock speed.
//
// Three backends are provided:
//   - CNF: a CDCL+XOR SAT solver (internal/sat) — the practical substitute
//     for the NP oracle, as in ApproxMC implementations;
//   - DNF: polynomial-time linear algebra per term (no NP oracle needed,
//     matching the FPRAS claims of Theorems 2 and 3);
//   - Exhaustive: brute-force enumeration, the ground-truth backend used to
//     validate the other two and to answer queries (like Proposition 3's
//     trailing-zero oracle over DNF inputs) with no known efficient
//     implementation.
//
// Proposition 3's FindMaxRange is a TrailingZeroTester method. Exhaustive
// answers it in one sweep; LinearTester answers it for linear hashes over
// any Source, and encode.PolyTester for polynomial hashes over CNF, both
// by the one binary search SearchTrailingZeros.
//
// # Concurrency contract
//
// A handle is single-threaded: it carries a query meter and (for CNF) an
// incremental SAT solver, both mutated by every call. Every handle forks:
// Source.Fork and TrailingZeroTester.ForkTester return an independent
// handle with its own meter and solver state — immutable inputs (the
// parsed formula, the materialised solution list of Exhaustive) are shared
// structurally, mutable state is never. The counting layer forks once per
// trial at every parallelism, releases each fork (CNFSource.Release) when
// its trial ends and sums the fork meters after the join, so each trial's
// queries depend on that trial alone and query counts are deterministic
// at every parallelism level.
// CNFSource keeps one incremental solver per handle across a trial's whole
// hash-cell sweep (rows installed once behind activation selectors and
// enabled by assumption), which is why sharing a handle across goroutines
// is unsafe even for "read-only" queries: every query schedules solver
// work. Scratch vectors passed to hash evaluation (hash.Linear.EvalInto)
// are caller-owned per the bitvec destination-passing contract.
package oracle

import (
	"math/bits"
	"sync"

	"mcf0/internal/bitvec"
	"mcf0/internal/formula"
	"mcf0/internal/gf2"
	"mcf0/internal/hash"
	"mcf0/internal/sat"
)

// Source enumerates solutions of φ conjoined with a linear (XOR) constraint
// system over the formula's variables. It is the primitive behind
// BoundedSAT (Proposition 1) and FindMin's prefix search (Proposition 2).
type Source interface {
	// NVars returns the variable count n.
	NVars() int
	// Enumerate visits up to limit distinct solutions of φ ∧ cons
	// (limit < 0 for all); visit returning false stops early. It returns
	// the number of solutions visited. cons may be nil (no constraints).
	// known lists distinct solutions of φ ∧ cons the caller already
	// holds: they are neither visited, nor counted against limit, nor
	// metered, and the exclusion ends with the call. Enumerate only reads
	// known before its first visit, so visit may append to the slice.
	Enumerate(cons *gf2.System, known []bitvec.BitVec, limit int, visit func(bitvec.BitVec) bool) int
	// Queries returns the cumulative number of NP-oracle invocations
	// (SAT calls for the CNF backend; per-term linear solves for DNF).
	Queries() int64
	// Fork returns an independent handle over the same formula, one per
	// trial: it shares the immutable formula (and any memoized solution
	// list) but meters its own queries starting from zero.
	Fork() Source
}

// TrailingZeroTester answers Proposition 3's FindMaxRange: the largest
// t ≤ maxT such that some x ⊨ φ has h(x) ending in at least t zero bits,
// or −1 when φ is unsatisfiable.
type TrailingZeroTester interface {
	MaxTrailingZeros(h hash.Func, maxT int) int
	Queries() int64
	// ForkTester is Source.Fork for testers.
	ForkTester() TrailingZeroTester
}

// SearchTrailingZeros is Proposition 3's binary search: given the oracle
// query exists(t) — is there an x ⊨ φ whose hash ends in ≥ t zeros? — it
// returns the largest such t ≤ maxT, or −1 when exists(0) fails, in at
// most ⌈log₂(maxT+1)⌉ + 1 queries.
func SearchTrailingZeros(maxT int, exists func(t int) bool) int {
	if !exists(0) {
		return -1
	}
	lo, hi := 0, maxT // invariant: exists(lo) true; answer in [lo, hi]
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if exists(mid) {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// LinearTester answers FindMaxRange for linear hashes over any Source:
// "h(x) ends in ≥ t zeros" is the XOR system h.SuffixZeroSystem(t), so
// each probe of the search is one Enumerate call (a single SAT call for
// CNFSource). Its hashes must be *hash.Linear.
type LinearTester struct{ Source }

// MaxTrailingZeros runs SearchTrailingZeros over the Source.
func (l LinearTester) MaxTrailingZeros(h hash.Func, maxT int) int {
	lin := h.(*hash.Linear)
	return SearchTrailingZeros(maxT, func(t int) bool {
		cons := lin.SuffixZeroSystem(t)
		if !cons.Consistent() {
			return false
		}
		return l.Enumerate(cons, nil, 1, func(bitvec.BitVec) bool { return true }) > 0
	})
}

// ForkTester forks the Source.
func (l LinearTester) ForkTester() TrailingZeroTester { return LinearTester{l.Fork()} }

// CNFSource is the SAT-backed oracle for CNF formulas. One CDCL solver
// instance is built lazily per source (φ's clauses are loaded exactly once)
// and reused across every Enumerate call, following the incremental
// CNF-XOR protocol of ApproxMC-on-CryptoMiniSat:
//
//   - each distinct XOR row A·x = b of a query's constraint system is
//     installed once as A·x ⊕ sel = b with a fresh activation selector
//     variable sel, and enabled per query by assuming ¬sel. With sel free
//     the row merely defines sel = A·x ⊕ b and constrains nothing, so rows
//     from earlier hash functions stay inert. Because the prefix systems
//     h_m(x) = 0^m of one hash are nested in echelon form, the hash-count
//     search at prefix m reuses the m−1 rows it already installed.
//   - a query's blocking clauses carry one shared blocking selector,
//     assumed false while the cell is enumerated and pinned true (a unit
//     clause) when the query finishes, which permanently satisfies — and
//     lets the solver's Simplify pass physically delete — every blocking
//     clause of that query. The caller's known solutions are blocked up
//     front under the same selector, so they retire with it.
//
// Under any Enumerate call's assumptions the auxiliary variables are all
// functions of x (row selectors via their XOR rows, retired blocking
// selectors via their units), so solver models remain in bijection with
// solutions of φ ∧ cons.
type CNFSource struct {
	cnf     *formula.CNF
	queries int64

	solver *sat.Solver
	broken bool // φ unsatisfiable at level 0
	// rowSel maps an XOR row's A-part to its activation selector per rhs
	// (-1 absent); fingerprint keys keep the per-query lookups
	// allocation-free (see the bitvec.Fingerprint collision contract).
	rowSel  map[bitvec.Fingerprint][2]int
	retired int           // blocking selectors pinned since last Simplify
	block   []formula.Lit // scratch for the clause blocking a known solution
	forks   *cnfForks
}

// auxBudget bounds the auxiliary (selector) variables a solver instance may
// accumulate before Enumerate retires it and rebuilds from φ: stale rows
// and retired selectors are inert but still cost propagation and model
// width, so unbounded reuse across many hash functions (e.g. one serial
// source serving every trial) would degrade linearly. A rebuild costs one
// CNF load — what the pre-incremental oracle paid on every query.
func (s *CNFSource) auxBudget() int {
	b := 8 * s.cnf.N
	if b < 256 {
		b = 256
	}
	return b
}

// cnfForks is shared by a source and all of its forks so solver work
// counters can be aggregated for reporting. It holds the counters of every
// solver dropped so far and the handles whose solver is still alive, so a
// released fork keeps nothing reachable but its meter.
type cnfForks struct {
	mu     sync.Mutex
	worked sat.Stats
	live   map[*CNFSource]struct{}
}

// NewCNFSource wraps a CNF formula.
func NewCNFSource(c *formula.CNF) *CNFSource {
	return &CNFSource{cnf: c, forks: &cnfForks{live: map[*CNFSource]struct{}{}}}
}

// Fork returns an independent source over the same formula with its own
// query meter and its own solver instance.
func (s *CNFSource) Fork() Source { return &CNFSource{cnf: s.cnf, forks: s.forks} }

// Release drops the handle's solver, folding its work counters into
// SolverStats. The meter is kept; a later query rebuilds from φ.
func (s *CNFSource) Release() { s.retire() }

// NVars returns the variable count.
func (s *CNFSource) NVars() int { return s.cnf.N }

// Queries returns the number of SAT-solver invocations so far.
func (s *CNFSource) Queries() int64 { return s.queries }

// SolverStats aggregates the CDCL work counters across this source and all
// of its forks. It must not be called while forked trials are still
// running.
func (s *CNFSource) SolverStats() sat.Stats {
	s.forks.mu.Lock()
	defer s.forks.mu.Unlock()
	total := s.forks.worked
	for m := range s.forks.live {
		total.Add(m.solver.Stats())
	}
	return total
}

// build loads φ into a fresh solver; false means φ is unsatisfiable at
// level 0.
func (s *CNFSource) build() bool {
	s.solver = sat.New(s.cnf.N)
	s.rowSel = make(map[bitvec.Fingerprint][2]int)
	s.forks.mu.Lock()
	s.forks.live[s] = struct{}{}
	s.forks.mu.Unlock()
	for _, cl := range s.cnf.Clauses {
		if !s.solver.AddClause([]formula.Lit(cl)) {
			s.broken = true
			return false
		}
	}
	return true
}

// retire drops the current solver; the next query rebuilds from φ.
func (s *CNFSource) retire() {
	if s.solver == nil {
		return
	}
	s.forks.mu.Lock()
	s.forks.worked.Add(s.solver.Stats())
	delete(s.forks.live, s)
	s.forks.mu.Unlock()
	s.solver = nil
	s.rowSel = nil
	s.retired = 0
}

// selector returns the activation selector for the XOR row (eq.A, eq.RHS),
// installing the row on first sight.
func (s *CNFSource) selector(eq gf2.Equation) (int, bool) {
	key := eq.A.Fingerprint()
	rhs := 0
	if eq.RHS {
		rhs = 1
	}
	sels, cached := s.rowSel[key]
	if !cached {
		sels = [2]int{-1, -1}
	}
	if sels[rhs] >= 0 {
		return sels[rhs], true
	}
	sel := s.solver.AddVar()
	vars := make([]int, 0, eq.A.PopCount()+1)
	for wi, w := range eq.A.Words() {
		for w != 0 {
			vars = append(vars, wi*64+bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
	vars = append(vars, sel)
	if !s.solver.AddXOR(vars, eq.RHS) {
		return 0, false
	}
	sels[rhs] = sel
	s.rowSel[key] = sels
	return sel, true
}

// Enumerate solves φ ∧ cons on the shared incremental solver, enabling the
// constraint rows by assumption and blocking each model before searching
// for the next. Each model costs one SAT call, plus one final UNSAT call
// (mirroring the paper's O(p) NP calls for BoundedSAT); known solutions
// are blocked before the first call and cost none.
func (s *CNFSource) Enumerate(cons *gf2.System, known []bitvec.BitVec, limit int, visit func(bitvec.BitVec) bool) int {
	if cons != nil && !cons.Consistent() {
		return 0
	}
	if limit == 0 {
		return 0
	}
	if s.solver != nil && s.solver.NVars()-s.cnf.N > s.auxBudget() {
		s.retire()
	}
	var eqs []gf2.Equation
	if cons != nil {
		eqs = cons.Equations()
	}
	// Hash turnover: when none of the query's rows are cached, the cached
	// rows belong to an abandoned hash function and would only slow
	// propagation down — start a fresh solver instead of dragging them
	// along. (Prefix systems of one hash are nested, so within a
	// hash-count search there is always overlap.)
	if len(eqs) > 0 && s.solver != nil && len(s.rowSel) > 0 {
		hit := false
		for _, eq := range eqs {
			if _, ok := s.rowSel[eq.A.Fingerprint()]; ok {
				hit = true
				break
			}
		}
		if !hit {
			s.retire()
		}
	}
	if s.solver == nil && !s.build() {
		return 0
	}
	if s.broken {
		return 0
	}
	n := s.cnf.N
	var assumps []formula.Lit
	for _, eq := range eqs {
		sel, ok := s.selector(eq)
		if !ok {
			// Installing an independent row can only fail when the
			// solver is already unsatisfiable at level 0.
			s.broken = true
			return 0
		}
		assumps = append(assumps, formula.Lit{Var: sel, Neg: true})
	}
	// Blocking clauses are scoped to this query by a blocking selector,
	// assumed false now and pinned true afterwards; the known solutions
	// are blocked first, under the same selector. A feasibility probe
	// (limit == 1, nothing known) never blocks, so it stays selector-free.
	var extra []formula.Lit
	blockSel := -1
	if limit != 1 || len(known) > 0 {
		blockSel = s.solver.AddVar()
		assumps = append(assumps, formula.Lit{Var: blockSel, Neg: true})
		extra = []formula.Lit{{Var: blockSel}}
		for _, x := range known {
			s.block = append(s.block[:0], formula.Lit{Var: blockSel})
			for v := 0; v < n; v++ {
				s.block = append(s.block, formula.Lit{Var: v, Neg: x.Get(v)})
			}
			s.solver.AddClause(s.block)
		}
	}
	count, exhausted := s.solver.EnumerateBlocking(limit, n, extra, visit, assumps...)
	// Meter like a solve-block-resolve loop: one SAT call per model, plus
	// the final UNSAT call when the cell was exhausted.
	s.queries += int64(count)
	if exhausted {
		s.queries++
	}
	if blockSel >= 0 && (count > 0 || len(known) > 0) {
		// Retire this query's blocking clauses by pinning the selector;
		// compact them away once enough queries have accumulated.
		s.solver.AddClause([]formula.Lit{{Var: blockSel}})
		s.retired++
		if s.retired >= 8 {
			s.solver.Simplify()
			s.retired = 0
		}
	}
	return count
}

// DNFSource is the polynomial-time oracle for DNF formulas: the solutions
// of a term conjoined with linear constraints form an affine subspace,
// enumerable by Gaussian elimination. Solutions appearing in multiple terms
// are deduplicated.
type DNFSource struct {
	dnf     *formula.DNF
	queries int64
	// empty is the persistent stand-in for a nil constraint system; unit is
	// scratch for the per-literal unit equations. Both exist so Enumerate
	// works by Mark/extend/Rewind instead of cloning a system per term.
	empty *gf2.System
	unit  bitvec.BitVec
}

// NewDNFSource wraps a DNF formula.
func NewDNFSource(d *formula.DNF) *DNFSource { return &DNFSource{dnf: d} }

// Fork returns an independent source over the same formula with its own
// query meter.
func (s *DNFSource) Fork() Source { return NewDNFSource(s.dnf) }

// NVars returns the variable count.
func (s *DNFSource) NVars() int { return s.dnf.N }

// Queries returns the number of per-term linear-system solves.
func (s *DNFSource) Queries() int64 { return s.queries }

// Enumerate visits distinct solutions of φ ∧ cons, term by term. Each
// term's equations are stacked onto cons behind a checkpoint and rewound
// afterwards (cons is restored to its entry state before Enumerate
// returns), replacing the former clone-per-term: the source is
// single-threaded per the package contract, so the temporary extension is
// invisible to the caller.
func (s *DNFSource) Enumerate(cons *gf2.System, known []bitvec.BitVec, limit int, visit func(bitvec.BitVec) bool) int {
	if cons != nil && !cons.Consistent() {
		return 0
	}
	if limit == 0 {
		return 0
	}
	sys := cons
	if sys == nil {
		if s.empty == nil {
			s.empty = gf2.NewSystem(s.dnf.N)
		}
		sys = s.empty
	}
	if s.unit.Len() == 0 {
		s.unit = bitvec.New(s.dnf.N)
	}
	seen := make(map[bitvec.Fingerprint]bool, len(known))
	for _, x := range known {
		seen[x.Fingerprint()] = true
	}
	count := 0
	stop := false
	for _, t := range s.dnf.Terms {
		if stop {
			break
		}
		cp := sys.Mark()
		ok := s.stackTerm(sys, t)
		s.queries++
		if ok && sys.Consistent() {
			sys.EnumerateSolutions(-1, func(x bitvec.BitVec) bool {
				fp := x.Fingerprint()
				if seen[fp] {
					return true
				}
				seen[fp] = true
				count++
				if !visit(x) {
					stop = true
					return false
				}
				if limit >= 0 && count >= limit {
					stop = true
					return false
				}
				return true
			})
		}
		sys.Rewind(cp)
	}
	return count
}

// stackTerm adds the unit equations "x ⊨ term" onto sys; false when the
// term is internally contradictory (nothing is added then).
func (s *DNFSource) stackTerm(sys *gf2.System, t formula.Term) bool {
	norm, ok := t.Normalize()
	if !ok {
		return false
	}
	for _, l := range norm {
		s.unit.Set(l.Var, true)
		sys.Add(s.unit, !l.Neg)
		s.unit.Set(l.Var, false)
	}
	return true
}

// Exhaustive is the ground-truth backend: full enumeration over {0,1}^n.
// It implements both Source and TrailingZeroTester. Practical for
// n ≤ ExhaustiveMaxVars.
type Exhaustive struct {
	n       int
	eval    func(bitvec.BitVec) bool
	queries int64
	sols    *solutionList // swept on first use, shared by forks
}

// solutionList is Sol(φ), swept once: its members as integers.
type solutionList struct {
	vals []uint64
}

// ExhaustiveMaxVars caps n where the public count paths answer
// trailing-zero queries with the exhaustive tester, which lists Sol(φ)
// by sweeping all 2^n assignments.
const ExhaustiveMaxVars = 24

// NewExhaustive wraps a predicate over n-bit assignments. The predicate
// must be a pure function of its argument (it is shared across forks).
func NewExhaustive(n int, eval func(bitvec.BitVec) bool) *Exhaustive {
	if n > 30 {
		panic("oracle: exhaustive backend beyond 2^30")
	}
	return &Exhaustive{n: n, eval: eval}
}

// Fork returns an independent handle with its own query meter. The
// solution list is swept first so that all forks share it instead of
// re-enumerating the universe.
func (e *Exhaustive) Fork() Source { return e.fork() }

// ForkTester is Fork as a TrailingZeroTester.
func (e *Exhaustive) ForkTester() TrailingZeroTester { return e.fork() }

func (e *Exhaustive) fork() *Exhaustive {
	return &Exhaustive{n: e.n, eval: e.eval, sols: e.solutions()}
}

// NVars returns the variable count.
func (e *Exhaustive) NVars() int { return e.n }

// Queries returns the number of full sweeps performed.
func (e *Exhaustive) Queries() int64 { return e.queries }

// Enumerate visits solutions in increasing numeric order, skipping the
// known ones. The sweep reuses one scratch vector; solutions are cloned
// only when visited.
func (e *Exhaustive) Enumerate(cons *gf2.System, known []bitvec.BitVec, limit int, visit func(bitvec.BitVec) bool) int {
	e.queries++
	if cons != nil && !cons.Consistent() {
		return 0
	}
	skip := make(map[bitvec.Fingerprint]bool, len(known))
	for _, x := range known {
		skip[x.Fingerprint()] = true
	}
	count := 0
	x := bitvec.New(e.n)
	for v := uint64(0); v < 1<<uint(e.n); v++ {
		if limit >= 0 && count >= limit {
			break
		}
		x.SetUint64(v)
		if !e.eval(x) {
			continue
		}
		if cons != nil && !satisfies(cons, x) || skip[x.Fingerprint()] {
			continue
		}
		count++
		if !visit(x.Clone()) {
			break
		}
	}
	return count
}

// solutions sweeps Sol(φ) once, with one scratch vector, so that
// repeated hash queries scan only the solution list instead of the whole
// universe.
func (e *Exhaustive) solutions() *solutionList {
	if e.sols == nil {
		s := new(solutionList)
		x := bitvec.New(e.n)
		for v := uint64(0); v < 1<<uint(e.n); v++ {
			x.SetUint64(v)
			if e.eval(x) {
				s.vals = append(s.vals, v)
			}
		}
		e.sols = s
	}
	return e.sols
}

// MaxTrailingZeros answers FindMaxRange in one sweep over the solution
// list, with the maximum clamped to maxT: a ground-truth backend need not
// pay the binary search's repeated scans. One sweep is one query.
func (e *Exhaustive) MaxTrailingZeros(h hash.Func, maxT int) int {
	e.queries++
	sols := e.solutions()
	best := -1
	for _, v := range sols.vals {
		best = max(best, trailingZerosValue(h.EvalUint64(v), h.OutBits()))
	}
	return min(best, maxT)
}

// trailingZerosValue is the string trailing-zero count of the n-bit output
// integer y (see hash.Func): n for zero, else the binary count.
func trailingZerosValue(y uint64, n int) int {
	if y == 0 {
		return n
	}
	return bits.TrailingZeros64(y)
}

func satisfies(cons *gf2.System, x bitvec.BitVec) bool {
	for _, eq := range cons.Equations() {
		if eq.A.Dot(x) != eq.RHS {
			return false
		}
	}
	return true
}
