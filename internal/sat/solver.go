// Package sat implements a CDCL (conflict-driven clause learning) SAT
// solver with native XOR-constraint support. It is the NP-oracle substrate
// for the hashing-based model counters: queries of the form
// φ ∧ (h_m(x) = 0^m) conjoin a CNF with XOR (GF(2)) constraints, exactly
// the CNF-XOR instances that motivated solvers like CryptoMiniSat.
//
// Design:
//
//   - Clauses live in a flat arena (one []uint32 of headers + literals, see
//     arena.go) referenced by offset, so the clause database is a single
//     allocation, propagation walks contiguous memory, and learned-clause
//     deletion compacts in one pass.
//   - Unit propagation uses two watched literals per clause with blocking
//     literals in the watch lists: a satisfied blocker skips the clause
//     without touching the arena.
//   - XOR rows are propagated natively with a two-watch scheme over their
//     variables (xor.go), after reduction against an online echelon basis
//     that catches linearly dependent or contradictory rows at add time.
//   - Decisions use VSIDS activities via an indexed binary max-heap
//     (heap.go) with multiplicative decay, and phase saving for polarity.
//   - Conflicts are analysed to the first unique implication point; each
//     learned clause is scored with its LBD (literal block distance, the
//     number of distinct decision levels it spans). When the learned
//     database outgrows its budget the solver restarts and deletes the
//     worst half by (LBD, size), keeping "glue" clauses (LBD ≤ 2) and
//     compacting the arena (reduce at level 0 means no learned clause is
//     locked as a reason).
//   - Restarts follow the Luby sequence (base 100 conflicts).
//   - Solving is incremental: clauses, XOR rows, and fresh variables
//     (AddVar) may be added between Solve calls, and Solve takes assumption
//     literals that are fixed for that call only and fully undone before it
//     returns — the substrate for reusing one solver across the model
//     counters' hash-cell queries via activation selectors.
//
// # Concurrency contract
//
// A Solver is strictly single-goroutine: every entry point (AddClause,
// AddXOR, Solve, EnumerateBlocking, Simplify) mutates the arena, the
// trail, and the heap, and nothing is locked. There is no Fork either —
// isolation lives one layer up, where oracle.CNFSource forks per trial by
// rebuilding a solver from the immutable formula. Model callbacks run on
// the calling goroutine and receive a scratch assignment vector owned by
// the solver, valid only for the duration of the callback (clone to keep).
// Given the same sequence of calls, the solver is fully deterministic:
// decisions, restarts, and learned-clause deletion depend only on the
// input sequence, never on time or scheduling — the property the
// fixed-seed regression suites and the differential harness
// (diff_test.go) lean on.
package sat

import (
	"sort"

	"mcf0/internal/bitvec"
	"mcf0/internal/formula"
	"mcf0/internal/gf2"
)

// lbool is a three-valued boolean.
type lbool int8

const (
	lUndef lbool = iota
	lTrue
	lFalse
)

// Literal encoding: positive literal of variable v is 2v, negative 2v+1.
func mkLit(v int, neg bool) uint32 {
	l := uint32(v) << 1
	if neg {
		l |= 1
	}
	return l
}

func litVar(l uint32) uint32 { return l >> 1 }

// Reason and conflict descriptors: a cref, or xorFlag|xorIndex, or the
// sentinels below. Arena offsets stay under xorFlag.
const (
	reasonNone uint32 = ^uint32(0)
	confNone   uint32 = ^uint32(0)
	xorFlag    uint32 = 1 << 31
)

// Stats counts solver work, used by the experiment harness and surfaced by
// cmd/approxmc -v.
type Stats struct {
	Decisions    int64
	Propagations int64
	Conflicts    int64
	Learned      int64
	// Deleted counts learned clauses removed by database reduction.
	Deleted  int64
	Restarts int64
	// LearnedLits counts literals in first-UIP clauses before minimization;
	// MinimizedLits counts how many of them recursive self-subsumption
	// pruned. MinimizedLits/LearnedLits is the shrink rate.
	LearnedLits   int64
	MinimizedLits int64
}

// Add accumulates o into s, for aggregating per-fork solver meters.
func (s *Stats) Add(o Stats) {
	s.Decisions += o.Decisions
	s.Propagations += o.Propagations
	s.Conflicts += o.Conflicts
	s.Learned += o.Learned
	s.Deleted += o.Deleted
	s.Restarts += o.Restarts
	s.LearnedLits += o.LearnedLits
	s.MinimizedLits += o.MinimizedLits
}

// Solver is an incremental CDCL SAT solver.
type Solver struct {
	nVars    int
	baseVars int // variables present at New; the XOR basis covers these

	ca      clauseArena
	clauses []cref // problem clauses
	learnts []cref

	watches    [][]watcher // literal → watch list
	xors       []xorRow
	xorWatches [][]uint32 // variable → xor indices watching it
	xorSys     *gf2.System

	assign   []lbool
	level    []int32
	reason   []uint32
	phase    []bool // saved phase for decision polarity
	activity []float64
	varInc   float64

	heap      []uint32
	heapIndex []int32

	trail    []uint32
	trailLim []int32
	qhead    int

	maxLearnts int

	unsat bool // established at level 0

	// Scratch buffers (zero steady-state allocation on the hot paths).
	seen         []bool
	levelStamp   []uint64
	lbdStamp     uint64
	learnedBuf   []uint32
	encBuf       []uint32
	litSeen      []uint8
	xorVarBuf    []uint32
	xorClauseBuf []uint32
	xorVecBuf    bitvec.BitVec
	xorResBuf    bitvec.BitVec
	assumpBuf    []uint32
	blockBuf     []uint32
	reduceBuf    []cref
	minStack     []uint32
	minClear     []uint32

	stats Stats
}

// watchCap is the initial watch-list capacity of each literal present at
// New: every list starts as its own share of one slab, so loading φ and
// blocking models grow a list only past watchCap watchers.
const watchCap = 8

// varHeadroom is the capacity New reserves past nVars in every
// per-variable slice, so the first AddVar calls (the selectors of an
// oracle's first XOR rows and blocking scope) append in place instead of
// reallocating each slice.
const varHeadroom = 16

// New returns a solver over nVars variables, all unassigned.
func New(nVars int) *Solver {
	vc, lc := nVars+varHeadroom, 2*(nVars+varHeadroom)
	s := &Solver{
		nVars:      nVars,
		baseVars:   nVars,
		watches:    make([][]watcher, 2*nVars, lc),
		xorWatches: make([][]uint32, nVars, vc),
		xorSys:     gf2.NewSystem(nVars),
		assign:     make([]lbool, 2*nVars, lc),
		level:      make([]int32, nVars, vc),
		reason:     make([]uint32, nVars, vc),
		phase:      make([]bool, nVars, vc),
		activity:   make([]float64, nVars, vc),
		varInc:     1,
		heap:       make([]uint32, nVars, vc),
		heapIndex:  make([]int32, nVars, vc),
		maxLearnts: 1000,
		seen:       make([]bool, nVars, vc),
		levelStamp: make([]uint64, nVars+1, vc+1),
		litSeen:    make([]uint8, 2*nVars, lc),
		xorVecBuf:  bitvec.New(nVars),
		xorResBuf:  bitvec.New(nVars),
	}
	for i := range s.reason {
		s.reason[i] = reasonNone
	}
	ws := make([]watcher, len(s.watches)*watchCap)
	for i := range s.watches {
		s.watches[i] = ws[i*watchCap : i*watchCap : (i+1)*watchCap]
	}
	for v := 0; v < nVars; v++ {
		s.heap[v] = uint32(v)
		s.heapIndex[v] = int32(v)
	}
	return s
}

// NVars returns the current variable count, including variables added with
// AddVar.
func (s *Solver) NVars() int { return s.nVars }

// Stats returns a copy of the work counters.
func (s *Solver) Stats() Stats { return s.stats }

// AddVar introduces a fresh unassigned variable and returns its index.
// Fresh variables serve as activation selectors in the incremental
// protocol: a constraint extended with a fresh variable is enabled by
// assuming the selector false and retired by pinning it true.
func (s *Solver) AddVar() int {
	v := s.nVars
	s.nVars++
	s.watches = append(s.watches, nil, nil)
	s.xorWatches = append(s.xorWatches, nil)
	s.assign = append(s.assign, lUndef, lUndef)
	s.level = append(s.level, 0)
	s.reason = append(s.reason, reasonNone)
	s.phase = append(s.phase, false)
	s.activity = append(s.activity, 0)
	s.seen = append(s.seen, false)
	s.litSeen = append(s.litSeen, 0, 0)
	s.levelStamp = append(s.levelStamp, 0)
	s.heapIndex = append(s.heapIndex, -1)
	s.heapInsert(uint32(v))
	return v
}

// value returns literal l's truth value; assignments are stored per
// literal (both polarities written on enqueue) so this is a single load on
// the propagation hot path.
func (s *Solver) value(l uint32) lbool { return s.assign[l] }

// varValue returns variable v's truth value.
func (s *Solver) varValue(v uint32) lbool { return s.assign[v<<1] }

// AddClause adds a disjunction of literals. Returns false if the formula is
// already unsatisfiable at level 0. Must be called at decision level 0
// (true initially and after Solve returns).
func (s *Solver) AddClause(lits []formula.Lit) bool {
	if s.unsat {
		return false
	}
	if s.decisionLevel() != 0 {
		panic("sat: AddClause above decision level 0")
	}
	enc := s.encBuf[:0]
	for _, l := range lits {
		if l.Var < 0 || l.Var >= s.nVars {
			panic("sat: literal variable out of range")
		}
		enc = append(enc, mkLit(l.Var, l.Neg))
	}
	s.encBuf = enc[:0]
	// Simplify: drop false literals, detect satisfied/tautological clauses,
	// dedupe via the per-literal scratch marks.
	out := enc[:0]
	result := int8(-1) // -1: keep going, 0: satisfied/tautology, 1: install
	for _, l := range enc {
		switch s.value(l) {
		case lTrue:
			result = 0
		case lFalse:
			continue
		default:
			if s.litSeen[l] != 0 {
				continue
			}
			if s.litSeen[l^1] != 0 {
				result = 0 // tautology
			}
			s.litSeen[l] = 1
			out = append(out, l)
		}
		if result == 0 {
			break
		}
	}
	for _, l := range out {
		s.litSeen[l] = 0
	}
	if result == 0 {
		return true
	}
	switch len(out) {
	case 0:
		s.unsat = true
		return false
	case 1:
		s.enqueue(out[0], reasonNone)
		if s.propagate() != confNone {
			s.unsat = true
			return false
		}
		return true
	}
	c := s.ca.alloc(out, false, 0)
	s.clauses = append(s.clauses, c)
	s.attach(c, out[0], out[1])
	return true
}

func (s *Solver) attach(c cref, l0, l1 uint32) {
	s.watches[l0] = append(s.watches[l0], watcher{c: c, blocker: l1})
	s.watches[l1] = append(s.watches[l1], watcher{c: c, blocker: l0})
}

func (s *Solver) decisionLevel() int { return len(s.trailLim) }

func (s *Solver) newDecisionLevel() {
	s.trailLim = append(s.trailLim, int32(len(s.trail)))
	if len(s.levelStamp) <= len(s.trailLim) {
		s.levelStamp = append(s.levelStamp, 0)
	}
}

// enqueue records the assignment implied by literal l with the given
// reason. The caller must ensure l is currently unassigned.
func (s *Solver) enqueue(l uint32, reason uint32) {
	s.assign[l] = lTrue
	s.assign[l^1] = lFalse
	v := l >> 1
	s.level[v] = int32(s.decisionLevel())
	s.reason[v] = reason
	s.trail = append(s.trail, l)
}

func (s *Solver) cancelUntil(lvl int) {
	if s.decisionLevel() <= lvl {
		return
	}
	bound := s.trailLim[lvl]
	for i := len(s.trail) - 1; i >= int(bound); i-- {
		l := s.trail[i]
		v := l >> 1
		s.phase[v] = l&1 == 0
		s.assign[l] = lUndef
		s.assign[l^1] = lUndef
		s.reason[v] = reasonNone
		s.heapInsert(v)
	}
	s.trail = s.trail[:bound]
	s.trailLim = s.trailLim[:lvl]
	s.qhead = len(s.trail)
}

// propagate performs unit propagation over clauses and XOR rows until
// fixpoint or conflict. Returns a conflict descriptor.
func (s *Solver) propagate() uint32 {
	for s.qhead < len(s.trail) {
		l := s.trail[s.qhead]
		s.qhead++
		s.stats.Propagations++
		if conf := s.propagateClauses(l ^ 1); conf != confNone {
			return conf
		}
		if len(s.xors) != 0 {
			if conf := s.propagateXORs(l >> 1); conf != confNone {
				return conf
			}
		}
	}
	return confNone
}

// propagateClauses visits clauses watching the now-false literal fl.
func (s *Solver) propagateClauses(fl uint32) uint32 {
	ws := s.watches[fl]
	kept := ws[:0]
	for wi := 0; wi < len(ws); wi++ {
		w := ws[wi]
		// Blocking literal: a known-true blocker satisfies the clause
		// without touching the arena.
		if s.value(w.blocker) == lTrue {
			kept = append(kept, w)
			continue
		}
		lits := s.ca.lits(w.c)
		// Ensure lits[1] is the false watch.
		if lits[0] == fl {
			lits[0], lits[1] = lits[1], lits[0]
		}
		first := lits[0]
		if first != w.blocker && s.value(first) == lTrue {
			kept = append(kept, watcher{c: w.c, blocker: first})
			continue
		}
		// Search a replacement watch.
		found := false
		for k := 2; k < len(lits); k++ {
			if s.value(lits[k]) != lFalse {
				lits[1], lits[k] = lits[k], lits[1]
				s.watches[lits[1]] = append(s.watches[lits[1]], watcher{c: w.c, blocker: first})
				found = true
				break
			}
		}
		if found {
			continue // moved to another watch list
		}
		// Clause is unit or conflicting.
		kept = append(kept, watcher{c: w.c, blocker: first})
		if s.value(first) == lFalse {
			// Conflict: keep remaining watches, restore list, report.
			kept = append(kept, ws[wi+1:]...)
			s.watches[fl] = kept
			return w.c
		}
		s.enqueue(first, w.c)
	}
	s.watches[fl] = kept
	return confNone
}

// reasonLits returns the clause form of the reason for variable v's
// assignment: a clause whose first literal asserts v and whose others are
// false under the current assignment.
func (s *Solver) reasonLits(v uint32) []uint32 {
	r := s.reason[v]
	if r&xorFlag != 0 && r != reasonNone {
		return s.xorClause(&s.xors[r&^xorFlag], int64(v))
	}
	return s.ca.lits(r)
}

func (s *Solver) conflictLits(conf uint32) []uint32 {
	if conf&xorFlag != 0 {
		return s.xorClause(&s.xors[conf&^xorFlag], -1)
	}
	return s.ca.lits(conf)
}

func (s *Solver) bumpVar(v uint32) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
	s.heapFix(v)
}

// analyze performs first-UIP conflict analysis. It returns the learned
// clause (asserting literal first, highest-level other literal second), the
// backtrack level, and the clause's LBD.
func (s *Solver) analyze(conf uint32) ([]uint32, int, uint32) {
	learned := append(s.learnedBuf[:0], 0) // placeholder for asserting literal
	counter := 0
	idx := len(s.trail) - 1
	lits := s.conflictLits(conf)
	skipFirst := false
	for {
		start := 0
		if skipFirst {
			start = 1 // skip the asserting literal of the reason
		}
		for _, q := range lits[start:] {
			v := litVar(q)
			if s.seen[v] || s.level[v] == 0 {
				continue
			}
			s.seen[v] = true
			s.bumpVar(v)
			if int(s.level[v]) >= s.decisionLevel() {
				counter++
			} else {
				learned = append(learned, q)
			}
		}
		// Find the next marked literal on the trail.
		for !s.seen[s.trail[idx]>>1] {
			idx--
		}
		p := s.trail[idx]
		v := p >> 1
		s.seen[v] = false
		counter--
		idx--
		skipFirst = true
		if counter == 0 {
			learned[0] = p ^ 1
			break
		}
		lits = s.reasonLits(v)
	}
	// Recursive self-subsumption (MiniSat-style minimization): drop every
	// literal whose reason set is dominated by the rest of the clause. The
	// seen marks double as the "in clause or proven removable" set; all
	// marks made here and above are cleared together via minClear.
	marks := s.minClear[:0]
	for _, q := range learned[1:] {
		marks = append(marks, q>>1)
	}
	s.minClear = marks
	orig := len(learned)
	s.stats.LearnedLits += int64(orig)
	learned = s.minimizeLearned(learned)
	s.stats.MinimizedLits += int64(orig - len(learned))
	// Compute backtrack level, moving the max-level literal to position 1
	// (the second watch), and clear marks.
	back := 0
	for i := 1; i < len(learned); i++ {
		if lvl := int(s.level[learned[i]>>1]); lvl > back {
			back = lvl
			learned[1], learned[i] = learned[i], learned[1]
		}
	}
	for _, v := range s.minClear {
		s.seen[v] = false
	}
	// LBD: distinct decision levels spanned by the clause.
	s.lbdStamp++
	lbd := uint32(0)
	for _, q := range learned {
		lvl := s.level[q>>1]
		if s.levelStamp[lvl] != s.lbdStamp {
			s.levelStamp[lvl] = s.lbdStamp
			lbd++
		}
	}
	s.learnedBuf = learned
	return learned, back, lbd
}

// minimizeLearned compacts the first-UIP clause in place, dropping every
// non-asserting literal proven redundant by litRedundant. On entry the seen
// marks are set exactly for the vars of learned[1:] (the analyze loop's
// invariant) and minClear lists them; litRedundant extends both with the
// vars it proves removable, and analyze clears everything via minClear.
func (s *Solver) minimizeLearned(learned []uint32) []uint32 {
	if len(learned) <= 1 {
		return learned
	}
	// Bloom filter of the decision levels present in the clause: a literal
	// is only removable if its whole reason cone stays on these levels, so
	// probes into foreign levels fail without walking the cone.
	var levels uint32
	for _, q := range learned[1:] {
		levels |= 1 << (uint(s.level[q>>1]) & 31)
	}
	out := learned[:1]
	for _, q := range learned[1:] {
		if s.reason[q>>1] == reasonNone || !s.litRedundant(q, levels) {
			out = append(out, q)
		}
	}
	return out
}

// litRedundant reports whether literal p of the learned clause is implied
// by the remaining literals: every literal reachable through reason clauses
// from p must itself be in the clause (seen), at level 0, or recursively
// redundant. Marks proven during the walk persist in seen/minClear — shared
// reason cones are explored once per conflict — and marks from a failed
// probe are rolled back so they cannot masquerade as clause membership.
func (s *Solver) litRedundant(p uint32, levels uint32) bool {
	stack := append(s.minStack[:0], p)
	top := len(s.minClear)
	for len(stack) > 0 {
		q := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		lits := s.reasonLits(litVar(q))
		for _, l := range lits[1:] {
			v := litVar(l)
			if s.seen[v] || s.level[v] == 0 {
				continue
			}
			if s.reason[v] == reasonNone || levels&(1<<(uint(s.level[v])&31)) == 0 {
				for _, w := range s.minClear[top:] {
					s.seen[w] = false
				}
				s.minClear = s.minClear[:top]
				s.minStack = stack[:0]
				return false
			}
			s.seen[v] = true
			s.minClear = append(s.minClear, v)
			stack = append(stack, l)
		}
	}
	s.minStack = stack[:0]
	return true
}

// record installs a learned clause and asserts its first literal.
func (s *Solver) record(learned []uint32, lbd uint32) {
	s.stats.Learned++
	if len(learned) == 1 {
		s.enqueue(learned[0], reasonNone)
		return
	}
	c := s.ca.alloc(learned, true, lbd)
	s.learnts = append(s.learnts, c)
	s.attach(c, learned[0], learned[1])
	s.enqueue(learned[0], c)
}

// reduceDB deletes the worst half of the learned clauses by (LBD, size),
// keeping glue clauses (LBD ≤ 2), then compacts the arena. Must be called
// at decision level 0, where no learned clause is locked as a reason.
func (s *Solver) reduceDB() {
	cand := s.reduceBuf[:0]
	for _, c := range s.learnts {
		if s.ca.lbd(c) > 2 {
			cand = append(cand, c)
		}
	}
	s.reduceBuf = cand[:0]
	// Worst first: highest LBD, then longest.
	sort.Slice(cand, func(i, j int) bool {
		li, lj := s.ca.lbd(cand[i]), s.ca.lbd(cand[j])
		if li != lj {
			return li > lj
		}
		return s.ca.size(cand[i]) > s.ca.size(cand[j])
	})
	for _, c := range cand[:len(cand)/2] {
		s.ca.markDeleted(c)
		s.stats.Deleted++
	}
	s.compact()
	s.maxLearnts += s.maxLearnts / 10
}

// Simplify removes clauses satisfied at level 0 (notably retired blocking
// clauses whose activation selector has been pinned) and compacts the
// arena. Must be called at decision level 0; returns false if level-0
// propagation derives unsatisfiability.
func (s *Solver) Simplify() bool {
	if s.unsat {
		return false
	}
	if s.decisionLevel() != 0 {
		panic("sat: Simplify above decision level 0")
	}
	if s.propagate() != confNone {
		s.unsat = true
		return false
	}
	s.compact()
	return true
}

// compact rewrites the arena with only live clauses, dropping deleted
// clauses and clauses satisfied at level 0, stripping level-0-false
// literals, and rebuilding every watch list. Level-0 reasons are cleared
// (conflict analysis never dereferences them).
func (s *Solver) compact() {
	old := s.ca.data
	s.ca.data = make([]uint32, 0, len(old))
	clauses, learnts := s.clauses[:0], s.learnts[:0]
	for i := range s.watches {
		s.watches[i] = s.watches[i][:0]
	}
	oldArena := clauseArena{data: old}
	copyList := func(list []cref, learned bool) {
		for _, c := range list {
			if oldArena.deleted(c) {
				continue
			}
			lits := oldArena.lits(c)
			keep := lits[:0]
			satisfied := false
			for _, l := range lits {
				switch s.value(l) {
				case lTrue:
					satisfied = true
				case lFalse:
					continue
				default:
					keep = append(keep, l)
				}
				if satisfied {
					break
				}
			}
			if satisfied {
				continue
			}
			// Unsatisfied clauses retain ≥ 2 unassigned literals at level
			// 0 (units were propagated, empty clauses flagged unsat).
			nc := s.ca.alloc(keep, learned, oldArena.lbd(c))
			s.attach(nc, keep[0], keep[1])
			if learned {
				learnts = append(learnts, nc)
			} else {
				clauses = append(clauses, nc)
			}
		}
	}
	copyList(s.clauses, false)
	copyList(s.learnts, true)
	s.clauses, s.learnts = clauses, learnts
	for _, l := range s.trail {
		s.reason[l>>1] = reasonNone
	}
}

// luby returns the i-th element (1-based) of the Luby restart sequence.
func luby(i int64) int64 {
	for k := int64(1); ; k++ {
		if i == (1<<uint(k))-1 {
			return 1 << uint(k-1)
		}
		if i < (1<<uint(k))-1 {
			return luby(i - (1 << uint(k-1)) + 1)
		}
	}
}

// prologue runs level-0 propagation and encodes assumption literals,
// returning false when the formula is unsatisfiable outright.
func (s *Solver) prologue(assumps []formula.Lit) ([]uint32, bool) {
	if conf := s.propagate(); conf != confNone {
		s.unsat = true
		return nil, false
	}
	as := s.assumpBuf[:0]
	for _, l := range assumps {
		if l.Var < 0 || l.Var >= s.nVars {
			panic("sat: assumption variable out of range")
		}
		as = append(as, mkLit(l.Var, l.Neg))
	}
	s.assumpBuf = as[:0]
	return as, true
}

// restartSched carries the Luby restart schedule across a solve session,
// including continuation searches during enumeration.
type restartSched struct {
	num       int64
	budget    int64
	conflicts int64
}

const restartBase = 100

func newRestartSched() restartSched {
	return restartSched{num: 1, budget: restartBase * luby(1)}
}

// search runs the CDCL loop until a satisfying assignment is reached (true;
// the trail is left intact so the caller can read the model or continue
// enumerating) or the formula is unsatisfiable under the assumptions
// (false; s.unsat is additionally set when unsatisfiability is established
// at level 0, independent of the assumptions).
func (s *Solver) search(as []uint32, rs *restartSched) bool {
	for {
		conf := s.propagate()
		if conf != confNone {
			s.stats.Conflicts++
			rs.conflicts++
			if s.decisionLevel() == 0 {
				s.unsat = true
				return false
			}
			learned, back, lbd := s.analyze(conf)
			s.cancelUntil(back)
			s.record(learned, lbd)
			s.varInc /= 0.95
			continue
		}
		if rs.conflicts >= rs.budget {
			// Restart; reduce the learned database when over budget
			// (level 0 is the safe point: no locked reasons).
			s.stats.Restarts++
			rs.num++
			rs.conflicts = 0
			rs.budget = restartBase * luby(rs.num)
			s.cancelUntil(0)
			if len(s.learnts) >= s.maxLearnts {
				s.reduceDB()
			}
			continue
		}
		// Establish pending assumptions as decisions.
		decision := reasonNone
		for decision == reasonNone && s.decisionLevel() < len(as) {
			p := as[s.decisionLevel()]
			switch s.value(p) {
			case lTrue:
				s.newDecisionLevel() // dummy level keeps indices aligned
			case lFalse:
				// Conflicting assumptions: UNSAT under assumptions, but
				// the formula itself is untouched.
				return false
			default:
				decision = p
			}
		}
		if decision == reasonNone {
			v := -1
			for {
				v = s.heapPop()
				if v < 0 || s.varValue(uint32(v)) == lUndef {
					break
				}
			}
			if v < 0 {
				return true // all variables assigned: SAT
			}
			s.stats.Decisions++
			decision = mkLit(v, !s.phase[v])
		}
		s.newDecisionLevel()
		s.enqueue(decision, reasonNone)
	}
}

// model snapshots the current assignment of variables [0, n).
func (s *Solver) model(n int) bitvec.BitVec {
	m := bitvec.New(n)
	s.modelInto(m.Words(), n)
	return m
}

// modelInto writes the current assignment of variables [0, n) into w, the
// ⌈n/64⌉ words of an n-bit vector. A positive literal's value is lTrue (1)
// or lFalse (2), so its low bit is the variable's bit and the loop has no
// branch; the excess high bits of the last word stay zero.
func (s *Solver) modelInto(w []uint64, n int) {
	a := s.assign
	for wi := range w {
		lo := wi * 64
		hi := min(lo+64, n)
		var x uint64
		for i := hi - 1; i >= lo; i-- {
			x = x<<1 | uint64(a[i<<1]&1)
		}
		w[wi] = x
	}
}

// Solve searches for a satisfying assignment under the given assumption
// literals, returning (model, true) on SAT and (zero, false) when the
// formula is unsatisfiable under the assumptions. The model covers all
// NVars() variables. The solver backtracks to level 0 before returning —
// assumptions are fully undone — so clauses, XOR rows, and variables may be
// added between calls (e.g. blocking clauses for enumeration).
func (s *Solver) Solve(assumps ...formula.Lit) (bitvec.BitVec, bool) {
	if s.unsat {
		return bitvec.BitVec{}, false
	}
	defer s.cancelUntil(0)
	as, ok := s.prologue(assumps)
	if !ok {
		return bitvec.BitVec{}, false
	}
	rs := newRestartSched()
	if !s.search(as, &rs) {
		return bitvec.BitVec{}, false
	}
	return s.model(s.nVars), true
}

// blockCurrent installs a clause forbidding the current assignment of
// variables [0, nBlock), with the extra literals appended, and backjumps
// just far enough to unassign the clause — the continuation step of
// AllSAT-style enumeration, avoiding a full re-descent per model. All
// clause literals must be false under the current assignment (extra
// literals are typically assumed-false selectors). Returns false when the
// blocked assignment was forced at level 0, i.e. it was the last model.
func (s *Solver) blockCurrent(nBlock int, extra []uint32) bool {
	lits := append(s.blockBuf[:0], extra...)
	for v := 0; v < nBlock; v++ {
		lits = append(lits, mkLit(v, s.varValue(uint32(v)) == lTrue))
	}
	s.blockBuf = lits[:0]
	if len(lits) == 0 {
		s.unsat = true // blocking the empty assignment: no models remain
		return false
	}
	maxLvl := 0
	for _, l := range lits {
		if lv := int(s.level[l>>1]); lv > maxLvl {
			maxLvl = lv
		}
	}
	if maxLvl == 0 {
		s.unsat = true
		return false
	}
	if len(lits) == 1 {
		// Unit block: the single variable must flip, permanently.
		s.cancelUntil(0)
		s.enqueue(lits[0], reasonNone)
		return true
	}
	// Watch selection. With an extra selector literal, watch it first: its
	// entry is dormant while the selector is assumed false, and once the
	// query retires the selector (pinned true) every visit through the
	// other watch short-circuits on the now-true blocker. The second watch
	// is the deepest blocked literal, freed by the backjump, so the clause
	// re-triggers correctly on re-descent. Without extras, watch the two
	// deepest literals.
	if ne := len(extra); ne > 0 && ne < len(lits) {
		deep := ne
		for i := ne + 1; i < len(lits); i++ {
			if s.level[lits[i]>>1] > s.level[lits[deep]>>1] {
				deep = i
			}
		}
		lits[1], lits[deep] = lits[deep], lits[1]
	} else {
		for i := 1; i < len(lits); i++ {
			if s.level[lits[i]>>1] > s.level[lits[0]>>1] {
				lits[0], lits[i] = lits[i], lits[0]
			}
		}
		for i := 2; i < len(lits); i++ {
			if s.level[lits[i]>>1] > s.level[lits[1]>>1] {
				lits[1], lits[i] = lits[i], lits[1]
			}
		}
	}
	c := s.ca.alloc(lits, false, 0)
	s.clauses = append(s.clauses, c)
	s.attach(c, lits[0], lits[1])
	s.cancelUntil(maxLvl - 1)
	return true
}

// blockModel blocks the current model before enumeration continues and
// reports whether models may remain. With extra selector literals the
// block is the negation of the decisions above the nAssump assumption
// levels: the assumptions, the live clauses (this query's earlier blocks
// included) and those decisions propagate to exactly this model, so the
// clause excludes it and nothing else. When every decision is on a
// variable below nBlock, the projection onto [0, nBlock) fixes the
// decisions and hence the whole model, so the projection is blocked too.
// The clause asserts the flipped last decision one level down, so the
// solver backjumps one level and enqueues it with the clause as reason
// instead of rediscovering the block through a conflict. Blocks without
// a selector would stay in force for later queries, and a decision on a
// variable at or past nBlock would leave other models with the same
// projection unblocked; both fall back to blockCurrent's full clause.
func (s *Solver) blockModel(nBlock int, extra []uint32, nAssump int) bool {
	if len(extra) == 0 {
		return s.blockCurrent(nBlock, extra)
	}
	top := s.decisionLevel()
	if top <= nAssump {
		return false // the assumptions alone force this model
	}
	lits := append(s.blockBuf[:0], extra...)
	for lvl := top; lvl > nAssump; lvl-- {
		d := s.trail[s.trailLim[lvl-1]]
		if int(d>>1) >= nBlock {
			s.blockBuf = lits[:0]
			return s.blockCurrent(nBlock, extra)
		}
		lits = append(lits, d^1)
	}
	s.blockBuf = lits[:0]
	// Watch the asserted literal and the deepest of the rest, the
	// invariant of a reason clause.
	ne := len(extra)
	lits[0], lits[ne] = lits[ne], lits[0]
	for i := 2; i < len(lits); i++ {
		if s.level[lits[i]>>1] > s.level[lits[1]>>1] {
			lits[1], lits[i] = lits[i], lits[1]
		}
	}
	c := s.ca.alloc(lits, false, 0)
	s.clauses = append(s.clauses, c)
	s.attach(c, lits[0], lits[1])
	s.cancelUntil(top - 1)
	s.enqueue(lits[0], c)
	return true
}

// EnumerateBlocking visits up to limit models (limit < 0 for all)
// consistent with the assumptions. Each visited model is blocked over
// variables [0, nBlock) by a clause that additionally contains the extra
// literals, which must be false under the assumptions (activation
// selectors): assuming them false in a later call re-engages the blocks,
// pinning them true retires the blocks. With selectors the clause is the
// negation of the model's decisions, usually far shorter than nBlock
// literals (see blockModel). Enumeration proceeds by continuation — after
// each model the solver backjumps only far enough to unassign the
// blocking clause instead of restarting the search — so the per-model
// cost is local. visit returning false stops early.
//
// Each visited model is a bitvec.View of its own ⌈nBlock/64⌉ words, so
// visit may keep every vector it is handed: no two visits share words,
// and the solver never writes them again. The words are carved from
// slabs allocated in chunks of 8 models, doubling up to 512, and never
// more than the limit leaves room for; nothing is reserved up front, so
// storage grows with the models visited, not with limit.
//
// It returns the number of models visited and whether the search space was
// exhausted (as opposed to stopping at limit or at visit's request): an
// exhausted enumeration is the analogue of the final UNSAT answer of a
// solve-block-resolve loop, which oracle metering counts as one more query.
func (s *Solver) EnumerateBlocking(limit, nBlock int, extra []formula.Lit, visit func(bitvec.BitVec) bool, assumps ...formula.Lit) (int, bool) {
	if s.unsat {
		return 0, true
	}
	if limit == 0 {
		return 0, false
	}
	if nBlock < 0 || nBlock > s.nVars {
		panic("sat: blocking variable range out of bounds")
	}
	defer s.cancelUntil(0)
	as, ok := s.prologue(assumps)
	if !ok {
		return 0, true
	}
	ex := make([]uint32, len(extra))
	for i, l := range extra {
		if l.Var < 0 || l.Var >= s.nVars {
			panic("sat: extra literal variable out of range")
		}
		ex[i] = mkLit(l.Var, l.Neg)
	}
	rs := newRestartSched()
	wpm := (nBlock + 63) / 64
	var slab []uint64
	chunk := 8
	count := 0
	for limit < 0 || count < limit {
		if !s.search(as, &rs) {
			return count, true
		}
		if len(slab) < wpm {
			k := chunk
			if limit >= 0 {
				k = min(k, limit-count)
			}
			slab = make([]uint64, k*wpm)
			chunk = min(2*chunk, 512)
		}
		x := slab[:wpm:wpm]
		slab = slab[wpm:]
		s.modelInto(x, nBlock)
		count++
		if !visit(bitvec.View(nBlock, x)) {
			return count, false
		}
		if limit >= 0 && count >= limit {
			return count, false
		}
		if !s.blockModel(nBlock, ex, len(as)) {
			return count, true
		}
	}
	return count, false
}
