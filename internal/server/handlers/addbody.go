package handlers

import (
	"errors"
	"fmt"
	"net/http"
	"sync"

	"mcf0/internal/server/middleware"
)

// addBuf is one add request's scratch: the raw body and its elements.
type addBuf struct {
	body []byte
	xs   []uint64
}

var addBufs = sync.Pool{New: func() any { return new(addBuf) }}

func (b *addBuf) release() {
	if cap(b.body) > maxPooled {
		b.body = nil
	}
	if cap(b.xs)*8 > maxPooled {
		b.xs = nil
	}
	addBufs.Put(b)
}

// decodeAdd reads an add body into b and decodes its elements with
// scanAdd, writing the typed 4xx decodeBody would for a malformed or
// over-size body, then batch_too_large for an over-long batch.
func (api *API) decodeAdd(w http.ResponseWriter, r *http.Request, b *addBuf) ([]uint64, bool) {
	body, over, err := readBody(w, r, api.maxBody(), b.body)
	b.body = body
	n := 0
	if err == nil {
		b.xs, n, err = scanAdd(body, over, api.maxBatch(), b.xs)
	}
	if api.bodyError(w, err) {
		return nil, false
	}
	if n > api.maxBatch() {
		middleware.WriteError(w, http.StatusRequestEntityTooLarge, "batch_too_large",
			fmt.Sprintf("batch of %d elements exceeds the %d-element limit; split it", n, api.maxBatch()))
		return nil, false
	}
	return b.xs, true
}

// addScanner decodes one add body; its one field is "elements".
type addScanner struct {
	scanner
	keep int // elements stored at most
	xs   []uint64
	n    int // elements seen, stored or not
}

var addFields = []string{"elements"}

// scanAdd decodes body into xs (reused from its first element on). It
// returns at most keep elements but counts all n of them, so an
// over-long batch costs no memory beyond keep; err is errBodyTooLarge
// when the decode ran into the body limit, any other error a malformed
// body.
func scanAdd(body []byte, over bool, keep int, xs []uint64) (_ []uint64, n int, err error) {
	s := addScanner{scanner: scanner{b: body, over: over}, keep: keep, xs: xs[:0]}
	err = s.run(addFields, s.elements)
	return s.xs, s.n, err
}

// elements scans the value of the "elements" key; a repeated key
// replaces the earlier value, and null means no elements.
func (s *addScanner) elements(int) {
	s.xs, s.n = s.xs[:0], 0
	switch s.b[s.i] {
	case 'n':
		s.literal("null")
		return
	case '[':
	default:
		if s.bad == nil {
			s.bad = errors.New("elements must be an array")
		}
		s.skip(1)
		return
	}
	s.i++
	if s.more() == ']' {
		s.i++
		return
	}
	for {
		v, ok := s.u64(2)
		if !ok && s.bad == nil {
			s.bad = fmt.Errorf("elements[%d]: want a uint64 as number or decimal string", s.n)
		}
		if s.n < s.keep {
			if len(s.xs) == cap(s.xs) {
				s.xs = grown(s.xs, s.keep)
			}
			s.xs = append(s.xs, v)
		}
		s.n++
		if !s.comma() && s.next(']') {
			return
		}
	}
}
