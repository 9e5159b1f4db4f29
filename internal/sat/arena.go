package sat

// cref is a clause reference: the word offset of a clause header inside the
// arena. References stay below 1<<31 so the top bit of reason/conflict
// descriptors can mark XOR rows.
type cref = uint32

const crefUndef cref = ^cref(0)

// clauseArena stores every clause in one flat []uint32: a two-word header
// followed by the literals. Clauses are allocated by appending, freed by
// marking, and reclaimed wholesale by compact() during learned-database
// reduction, so the solver performs no per-clause heap allocation and
// propagation walks contiguous memory.
//
// Layout per clause:
//
//	word 0: size<<2 | learnedBit | deletedBit
//	word 1: LBD (literal block distance) for learned clauses, 0 otherwise
//	words 2..2+size: literals (variable<<1 | sign)
type clauseArena struct {
	data []uint32
}

const (
	hdrLearned uint32 = 1
	hdrDeleted uint32 = 2
	hdrWords          = 2
)

func (a *clauseArena) alloc(lits []uint32, learned bool, lbd uint32) cref {
	c := cref(len(a.data))
	hdr := uint32(len(lits)) << 2
	if learned {
		hdr |= hdrLearned
	}
	a.data = append(a.data, hdr, lbd)
	a.data = append(a.data, lits...)
	return c
}

func (a *clauseArena) size(c cref) int     { return int(a.data[c] >> 2) }
func (a *clauseArena) deleted(c cref) bool { return a.data[c]&hdrDeleted != 0 }
func (a *clauseArena) markDeleted(c cref)  { a.data[c] |= hdrDeleted }
func (a *clauseArena) lbd(c cref) uint32   { return a.data[c+1] }

// lits returns the clause body as a slice view into the arena. The view is
// invalidated by any alloc (append may relocate) or compact, so callers
// must not hold it across either.
func (a *clauseArena) lits(c cref) []uint32 {
	return a.data[c+hdrWords : c+hdrWords+cref(a.size(c))]
}

// watcher is one entry of a literal's watch list. blocker is some other
// literal of the clause; when it is already true the clause is satisfied
// and propagation skips it without touching the arena (the "blocking
// literal" optimisation).
type watcher struct {
	c       cref
	blocker uint32
}
