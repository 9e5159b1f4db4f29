package handlers

import (
	"fmt"
	"net/http"
	"slices"
	"sync"
)

// countFields is the count body's field table, in countReq's field order.
var countFields = []string{"kind", "n", "clauses", "terms", "algorithm", "epsilon", "delta", "thresh",
	"iterations", "seed", "parallelism"}

const (
	fieldKind = iota
	fieldN
	fieldClauses
	fieldTerms
	fieldAlgorithm
	fieldEpsilon
	fieldDelta
	fieldThresh
	fieldIterations
	fieldSeed
	fieldParallelism
)

// countWants names what each field's value must be, for the type error.
var countWants = [...]string{
	fieldKind: "a string", fieldN: "an int", fieldClauses: "an array of int arrays",
	fieldTerms: "an array of int arrays", fieldAlgorithm: "a string", fieldEpsilon: "a number",
	fieldDelta: "a number", fieldThresh: "an int", fieldIterations: "an int",
	fieldSeed: "a uint64 as number or decimal string", fieldParallelism: "an int",
}

// maxLists and maxLits bound the formula one count request may carry;
// past either the route answers 413 formula_too_large.
const (
	maxLists = 1 << 17
	maxLits  = 1 << 20
)

// countBuf is one count request's scratch: the raw body and the storage
// of its two list keys.
type countBuf struct {
	body           []byte
	clauses, terms formula
}

var countBufs = sync.Pool{New: func() any { return new(countBuf) }}

func (b *countBuf) release() {
	if cap(b.body) > maxPooled {
		b.body = nil
	}
	b.clauses.release()
	b.terms.release()
	countBufs.Put(b)
}

// decodeCount reads a count body into b and decodes it with scanCount,
// writing the typed 4xx decodeBody would for a malformed or over-size
// body. The request's lists are sub-slices of b's slabs, valid until b
// is released; a list key past maxLists or maxLits decodes to nil with
// b's formula marked over.
func (api *API) decodeCount(w http.ResponseWriter, r *http.Request, b *countBuf) (req countReq, ok bool) {
	body, over, err := readBody(w, r, api.maxBody(), b.body)
	b.body = body
	if err == nil {
		req, err = scanCount(body, over, b)
	}
	return req, !api.bodyError(w, err)
}

// countScanner decodes one count body into req, its list keys into
// clauses and terms.
type countScanner struct {
	scanner
	req            countReq
	clauses, terms *formula
}

// scanCount decodes body as decodeBody(&req) would, the lists into b's
// storage; err is errBodyTooLarge when the decode ran into the body
// limit, any other error a malformed body.
func scanCount(body []byte, over bool, b *countBuf) (countReq, error) {
	b.clauses.reset()
	b.terms.reset()
	s := countScanner{scanner: scanner{b: body, over: over}, clauses: &b.clauses, terms: &b.terms}
	if err := s.run(countFields, s.field); err != nil {
		return countReq{}, err
	}
	s.req.Clauses, s.req.Terms = b.clauses.lists(), b.terms.lists()
	return s.req, nil
}

// field scans the value of countFields[f] as encoding/json decodes it
// into countReq: null leaves a scalar as it was (but U64.UnmarshalJSON
// refuses it for seed) and empties a list, and a value of another type
// is a deferred error.
func (s *countScanner) field(f int) {
	r := &s.req
	if s.b[s.i] == 'n' && f != fieldSeed {
		s.literal("null")
		switch f {
		case fieldClauses:
			s.clauses.reset()
		case fieldTerms:
			s.terms.reset()
		}
		return
	}
	var ok bool
	switch f {
	case fieldKind:
		r.Kind, ok = s.text(1)
	case fieldN:
		r.N, ok = s.integer(1)
	case fieldClauses:
		ok = s.formula(s.clauses)
	case fieldTerms:
		ok = s.formula(s.terms)
	case fieldAlgorithm:
		r.Algorithm, ok = s.text(1)
	case fieldEpsilon:
		r.Epsilon, ok = s.float(1)
	case fieldDelta:
		r.Delta, ok = s.float(1)
	case fieldThresh:
		r.Thresh, ok = s.integer(1)
	case fieldIterations:
		r.Iterations, ok = s.integer(1)
	case fieldSeed:
		var v uint64
		v, ok = s.u64(1)
		r.Seed = U64(v)
	case fieldParallelism:
		r.Parallelism, ok = s.integer(1)
	}
	if !ok && s.bad == nil {
		s.bad = fmt.Errorf("%s must be %s", countFields[f], countWants[f])
	}
}

// formula scans a list key's value, an array of int arrays, into f; ok
// is false when a value in it has another type.
func (s *countScanner) formula(f *formula) (ok bool) {
	if s.b[s.i] != '[' {
		s.skip(1)
		return false
	}
	s.i++
	if s.more() == ']' {
		s.i++
		f.reset()
		return true
	}
	f.begin()
	ok = true
	for i := 1; ; i++ {
		switch s.b[s.i] {
		case '[':
			ok = s.list(f, f.prev(i-1)) && ok
		case 'n':
			s.literal("null")
			f.empty()
		default:
			s.skip(2)
			f.empty()
			ok = false
		}
		if !s.comma() && s.next(']') {
			f.end(i)
			return ok
		}
	}
}

// list scans one int array into f; prev is the list an earlier copy of
// the key left at its position.
func (s *countScanner) list(f *formula, prev span) (ok bool) {
	s.i++
	if s.more() == ']' {
		s.i++
		f.empty()
		return true
	}
	start, n := len(f.lits), 0
	ok = true
	for {
		var v int
		if s.b[s.i] == 'n' {
			s.literal("null")
			v = f.stale(prev, n)
		} else {
			var vok bool
			v, vok = s.integer(3)
			ok = ok && vok
		}
		f.push(v)
		n++
		if !s.comma() && s.next(']') {
			f.close(start, n, prev)
			return ok
		}
	}
}

// formula is the storage of one list key, clauses or terms: the literals
// of every list in one slab, each list located by a span.
//
// A repeated key decodes, in encoding/json, into the slices its previous
// copy left: a shorter list keeps the old literals past its end in its
// capacity, a shorter array keeps the old lists past its end, and a null
// literal leaves the old value at its position. So a copy is scanned
// next to the previous one, which it reads for those values, and then
// moved down over it; both count against the storage bound.
type formula struct {
	lits  []int
	spans []span // the last copy's lists, then lists a longer earlier copy left
	n     int    // lists in the last copy
	over  bool   // the storage passed maxLists or maxLits: nothing more is stored
	// While a copy is scanned, lits[:base] and spans[:baseSpans] still
	// hold the previous one.
	base, baseSpans int
	out             [][]int // the lists handed to mcf0
}

// span is one list, lits[off:off+n]; up to off+cap follow the literals
// an earlier copy of the key left past its end.
type span struct{ off, n, cap int32 }

func (f *formula) reset() {
	f.lits, f.spans, f.n, f.over, f.base, f.baseSpans = f.lits[:0], f.spans[:0], 0, false, 0, 0
}

func (f *formula) begin() { f.base, f.baseSpans = len(f.lits), len(f.spans) }

// prev returns the list the previous copy of the key left at position i.
func (f *formula) prev(i int) span {
	if i < f.baseSpans && !f.over {
		return f.spans[i]
	}
	return span{}
}

// stale returns the literal prev holds at position j, the value a null
// literal there leaves: 0 when there is none.
func (f *formula) stale(prev span, j int) int {
	if j < int(prev.cap) {
		return f.lits[int(prev.off)+j]
	}
	return 0
}

// push stores one literal, doubling the slab up to maxLits; past that
// the key is over-size.
func (f *formula) push(v int) {
	if f.over {
		return
	}
	if n := len(f.lits); n == cap(f.lits) {
		if n >= maxLits {
			f.over = true
			return
		}
		f.lits = grown(f.lits, maxLits)
	}
	f.lits = append(f.lits, v)
}

// add stores one list's span, doubling up to maxLists; past that the
// key is over-size.
func (f *formula) add(sp span) {
	if f.over {
		return
	}
	if n := len(f.spans); n == cap(f.spans) {
		if n >= maxLists {
			f.over = true
			return
		}
		f.spans = grown(f.spans, maxLists)
	}
	f.spans = append(f.spans, sp)
}

// empty stores a null or [] list: a fresh one, nothing left in it.
func (f *formula) empty() { f.add(span{off: int32(len(f.lits))}) }

// close ends the list of n literals that began at start, where the
// previous copy left prev: prev's literals past n stay in its capacity.
func (f *formula) close(start, n int, prev span) {
	for j := n; j < int(prev.cap); j++ {
		f.push(f.lits[int(prev.off)+j])
	}
	f.add(span{int32(start), int32(n), int32(max(n, int(prev.cap)))})
}

// end closes a copy of n lists: the lists a longer previous copy left
// past them stay, and the copy moves down over the previous one.
func (f *formula) end(n int) {
	for i := n; i < f.baseSpans && !f.over; i++ {
		p := f.spans[i]
		start := len(f.lits)
		for j := range int(p.cap) {
			f.push(f.lits[int(p.off)+j])
		}
		f.add(span{int32(start), p.n, p.cap})
	}
	if f.over {
		return
	}
	if f.baseSpans > 0 {
		f.lits = f.lits[:copy(f.lits, f.lits[f.base:])]
		f.spans = f.spans[:copy(f.spans, f.spans[f.baseSpans:])]
		for i := range f.spans {
			f.spans[i].off -= int32(f.base)
		}
	}
	f.n, f.base, f.baseSpans = n, 0, 0
}

// lists returns the key's lists, sub-slices of the slab; nil when the
// key is absent, null or over-size.
func (f *formula) lists() [][]int {
	if f.over || f.n == 0 {
		return nil
	}
	f.out = slices.Grow(f.out[:0], f.n)
	for _, sp := range f.spans[:f.n] {
		f.out = append(f.out, f.lits[sp.off:sp.off+sp.n:sp.off+sp.n])
	}
	return f.out
}

// release drops the storage the pool should not keep; the list headers
// go either way, so they pin no dropped slab.
func (f *formula) release() {
	clear(f.out)
	f.out = f.out[:0]
	if cap(f.lits)*8 > maxPooled {
		f.lits = nil
	}
	if cap(f.spans)*12 > maxPooled {
		f.spans = nil
	}
	if cap(f.out)*24 > maxPooled {
		f.out = nil
	}
}
