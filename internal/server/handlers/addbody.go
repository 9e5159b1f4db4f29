package handlers

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"sync"
	"unicode/utf16"
	"unicode/utf8"

	"mcf0/internal/server/middleware"
)

// The add body, {"elements":[…]}, is scanned by hand: through
// encoding/json (reflection plus one U64.UnmarshalJSON per element) its
// decode cost more than absorbing the batch. scanAdd accepts and rejects
// exactly what decodeBody(&struct{Elements []U64}) does, element values
// included — FuzzAddBody holds it to that reference — so the add route
// keeps the same contract as every other route.

// maxNestingDepth is encoding/json's scanner limit: the 10001st open
// bracket is a syntax error.
const maxNestingDepth = 10000

// maxPooled bounds the buffers an addBuf may return to the pool, so one
// large body cannot pin its memory for the daemon's lifetime.
const maxPooled = 1 << 20

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

// errBodyTooLarge marks a body whose decode needed bytes past the limit.
var errBodyTooLarge = errors.New("request body too large")

// decodeAdd reads an add body into b and decodes its elements with
// scanAdd, writing the typed 4xx decodeBody would for a malformed or
// over-size body, then batch_too_large for an over-long batch.
func (api *API) decodeAdd(w http.ResponseWriter, r *http.Request, b *addBuf) ([]uint64, bool) {
	body, over, err := readBody(w, r, api.maxBody(), b.body)
	b.body = body
	if err != nil {
		middleware.WriteError(w, http.StatusBadRequest, "bad_request", "malformed request body: "+err.Error())
		return nil, false
	}
	xs, n, err := scanAdd(body, over, api.maxBatch(), b.xs)
	b.xs = xs
	switch {
	case errors.Is(err, errBodyTooLarge):
		middleware.WriteError(w, http.StatusRequestEntityTooLarge, "body_too_large",
			fmt.Sprintf("request body exceeds %d bytes", api.maxBody()))
		return nil, false
	case err != nil:
		middleware.WriteError(w, http.StatusBadRequest, "bad_request", "malformed request body: "+err.Error())
		return nil, false
	case n > api.maxBatch():
		middleware.WriteError(w, http.StatusRequestEntityTooLarge, "batch_too_large",
			fmt.Sprintf("batch of %d elements exceeds the %d-element limit; split it", n, api.maxBatch()))
		return nil, false
	}
	return xs, true
}

// readBody reads the body, capped at limit bytes, into buf. over reports
// that the body went on past the cap; buf then holds its first limit
// bytes, which is all json.Decoder would have scanned either.
func readBody(w http.ResponseWriter, r *http.Request, limit int64, buf []byte) (_ []byte, over bool, err error) {
	body := http.MaxBytesReader(w, r.Body, limit)
	// Trust a declared length only up to what the pool keeps: a client
	// may declare megabytes and send nothing.
	if n := min(r.ContentLength, limit, maxPooled); n >= int64(cap(buf)) {
		buf = make([]byte, 0, n+1) // +1: the read that sees EOF needs room
	}
	buf = buf[:0]
	for {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, max(len(buf), 512)) // doubling: O(body) bytes in all
		}
		n, err := body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == nil {
			continue
		}
		if err == io.EOF {
			return buf, false, nil
		}
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return buf, true, nil
		}
		return buf, false, err
	}
}

// addScanner decodes one add body. A syntax error, or the end of the
// buffer inside the value, unwinds the recursion as a scanError panic
// that scanAdd returns. A well-formed value of the wrong type (an
// unknown field, an element that is no uint64) is kept in bad and
// reported only once the whole value has scanned, as encoding/json
// reports it only after reading the value.
type addScanner struct {
	b    []byte
	i    int
	over bool  // b stops at the body limit; the body went on past it
	bad  error // first type error
	keep int   // elements stored at most
	xs   []uint64
	n    int // elements seen, stored or not
}

// scanError carries a scanner failure up to scanAdd's recover.
type scanError struct{ err error }

// scanAdd decodes body into xs (reused from its first element on). It
// returns at most keep elements but counts all n of them, so an
// over-long batch costs no memory beyond keep; err is errBodyTooLarge
// when the decode ran into the body limit, any other error a malformed
// body.
func scanAdd(body []byte, over bool, keep int, xs []uint64) (_ []uint64, n int, err error) {
	s := addScanner{b: body, over: over, keep: keep, xs: xs[:0]}
	defer func() {
		if r := recover(); r != nil {
			e, ok := r.(scanError)
			if !ok {
				panic(r)
			}
			xs, n, err = s.xs, s.n, e.err
		}
	}()
	err = s.top()
	return s.xs, s.n, err
}

func (s *addScanner) top() error {
	switch c := s.more(); c {
	case '{':
		s.object()
	case 'n': // null decodes into the request as nothing at all
		s.literal("null")
	default:
		s.skip(0)
		s.bad = errors.New("request body must be a JSON object")
		// A top-level scalar ends only at the byte after it.
		if c != '[' && s.i == len(s.b) && s.over {
			return errBodyTooLarge
		}
	}
	if s.bad != nil {
		return s.bad
	}
	s.ws()
	if s.i < len(s.b) {
		// decodeBody's check decodes a trailing scalar before rejecting
		// it, so one the limit cuts is a 413.
		if c := s.b[s.i]; c != '{' && c != '[' && s.over {
			if s.skip(0); s.i == len(s.b) {
				return errBodyTooLarge
			}
		}
		return errors.New("trailing data after JSON body")
	}
	if s.over {
		return errBodyTooLarge
	}
	return nil
}

// object scans the request object; its one field is "elements".
func (s *addScanner) object() {
	s.i++
	if s.more() == '}' {
		s.i++
		return
	}
	for {
		if s.b[s.i] != '"' {
			s.syntax()
		}
		start := s.i
		match := s.key()
		if !match && s.bad == nil {
			s.bad = fmt.Errorf("unknown field %s", s.b[start:s.i])
		}
		s.colon()
		if match {
			s.elements()
		} else {
			s.skip(1)
		}
		if s.next('}') {
			return
		}
	}
}

// elements scans the value of the "elements" key; a repeated key
// replaces the earlier value, and null means no elements.
func (s *addScanner) elements() {
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
		v, ok := s.element()
		if !ok && s.bad == nil {
			s.bad = fmt.Errorf("elements[%d]: want a uint64 as number or decimal string", s.n)
		}
		if s.n < s.keep {
			if len(s.xs) == cap(s.xs) { // double, but never past keep
				s.xs = slices.Grow(s.xs, min(max(len(s.xs), 64), s.keep-len(s.xs)))
			}
			s.xs = append(s.xs, v)
		}
		s.n++
		if s.i+1 < len(s.b) && s.b[s.i] == ',' && !isSpace(s.b[s.i+1]) {
			s.i++ // the common separator, with the next element right after it
			continue
		}
		if s.next(']') {
			return
		}
	}
}

// element scans one array element and decodes it as U64.UnmarshalJSON
// does: a bare JSON number that strconv.ParseUint accepts, or a string
// of one or more ASCII digits. ok is false for any other well-formed
// value.
func (s *addScanner) element() (v uint64, ok bool) {
	switch c := s.b[s.i]; {
	case '1' <= c && c <= '9':
		v, ok = s.digits()
	case c == '0':
		s.i++
		v, ok = 0, true
	case c == '"':
		start := s.i
		s.i++
		if v, ok = s.digits(); ok && s.i > start+1 && s.i < len(s.b) && s.b[s.i] == '"' {
			s.i++
			return v, true
		}
		s.i = start
		s.str()
		return 0, false
	default:
		s.skip(2)
		return 0, false
	}
	if s.i < len(s.b) && (s.b[s.i] == '.' || s.b[s.i]|0x20 == 'e') {
		s.fracExp()
		return 0, false
	}
	return v, ok
}

// digits consumes a run of ASCII digits as a decimal uint64; ok is false
// when it overflows.
func (s *addScanner) digits() (v uint64, ok bool) {
	b, start, i := s.b, s.i, s.i
	for ; i < len(b); i++ {
		d := b[i] - '0'
		if d > 9 {
			break
		}
		v = v*10 + uint64(d)
	}
	s.i = i
	if i-start < 20 { // 19 digits always fit
		return v, true
	}
	d := bytes.TrimLeft(b[start:i], "0")
	return v, len(d) < 20 || len(d) == 20 && string(d) <= "18446744073709551615"
}

// key scans an object key and reports whether encoding/json would bind
// it to "elements": unescaped, then compared with bytes.EqualFold, so
// "ELEMENTS" and "elementſ" (long s) match too.
func (s *addScanner) key() bool {
	start := s.i
	esc := s.str()
	raw := s.b[start+1 : s.i-1]
	if !esc {
		return bytes.EqualFold(raw, []byte("elements"))
	}
	var arr [32]byte
	k := arr[:0]
	for i := 0; i < len(raw); {
		if len(k) > len(arr) { // more than eight runes
			return false
		}
		switch {
		case raw[i] != '\\':
			k = append(k, raw[i])
			i++
		case raw[i+1] == 'u':
			r := hex4(raw[i+2 : i+6])
			if utf16.IsSurrogate(r) {
				r = utf8.RuneError // alone or paired, no letter of "elements"
			}
			k = utf8.AppendRune(k, r)
			i += 6
		default: // \" \\ \/ \b \f \n \r \t: no letter of "elements"
			k = append(k, 0)
			i += 2
		}
	}
	return bytes.EqualFold(k, []byte("elements"))
}

// hex4 decodes four hex digits the scanner has already checked.
func hex4(h []byte) rune {
	var r rune
	for _, c := range h {
		switch {
		case c <= '9':
			c -= '0'
		case c <= 'F':
			c -= 'A' - 10
		default:
			c -= 'a' - 10
		}
		r = r<<4 | rune(c)
	}
	return r
}

// skip scans one well-formed JSON value of any kind; depth counts the
// arrays and objects around it.
func (s *addScanner) skip(depth int) {
	switch c := s.b[s.i]; c {
	case '{', '[':
		if depth++; depth > maxNestingDepth {
			panic(scanError{fmt.Errorf("exceeded max nesting depth at offset %d", s.i)})
		}
		end := byte(']')
		if c == '{' {
			end = '}'
		}
		s.i++
		if s.more() == end {
			s.i++
			return
		}
		for {
			if c == '{' {
				if s.b[s.i] != '"' {
					s.syntax()
				}
				s.str()
				s.colon()
			}
			s.skip(depth)
			if s.next(end) {
				return
			}
		}
	case '"':
		s.str()
	case 't':
		s.literal("true")
	case 'f':
		s.literal("false")
	case 'n':
		s.literal("null")
	default: // a number
		if c == '-' {
			s.i++
		}
		switch c := s.peek(); {
		case c == '0':
			s.i++
		case '1' <= c && c <= '9':
			s.digits()
		default:
			s.syntax()
		}
		s.fracExp()
	}
}

// fracExp consumes a number's optional fraction and exponent.
func (s *addScanner) fracExp() {
	if s.i < len(s.b) && s.b[s.i] == '.' {
		s.i++
		s.digits1()
	}
	if s.i < len(s.b) && s.b[s.i]|0x20 == 'e' {
		s.i++
		if s.i < len(s.b) && (s.b[s.i] == '+' || s.b[s.i] == '-') {
			s.i++
		}
		s.digits1()
	}
}

// digits1 consumes one or more digits.
func (s *addScanner) digits1() {
	if c := s.peek(); c < '0' || c > '9' {
		s.syntax()
	}
	s.digits()
}

// str scans a JSON string and reports whether it holds an escape.
func (s *addScanner) str() (esc bool) {
	for s.i++; ; s.i++ {
		switch c := s.peek(); {
		case c == '"':
			s.i++
			return esc
		case c < 0x20:
			s.syntax()
		case c == '\\':
			esc = true
			s.i++
			switch s.peek() {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				for k := 0; k < 4; k++ {
					s.i++
					if c := s.peek(); !('0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F') {
						s.syntax()
					}
				}
			default:
				s.syntax()
			}
		}
	}
}

func (s *addScanner) literal(lit string) {
	for k := range len(lit) {
		if s.peek() != lit[k] {
			s.syntax()
		}
		s.i++
	}
}

// colon consumes the ':' after an object key and the whitespace around
// it, leaving the value's first byte next.
func (s *addScanner) colon() {
	if s.more() != ':' {
		s.syntax()
	}
	s.i++
	s.more()
}

// next consumes the ',' or closing end after a container member and
// reports whether it was the end; after a ',' the next member's first
// byte is next.
func (s *addScanner) next(end byte) bool {
	switch s.more() {
	case end:
		s.i++
		return true
	case ',':
		s.i++
		s.more()
		return false
	}
	s.syntax()
	return false
}

func (s *addScanner) ws() {
	b, i := s.b, s.i
	for i < len(b) && isSpace(b[i]) {
		i++
	}
	s.i = i
}

// more skips whitespace and returns the next byte.
func (s *addScanner) more() byte {
	s.ws()
	return s.peek()
}

// peek returns the next byte. The buffer ending first means the value
// goes on past it: past the body limit that is the limit's fault,
// otherwise the body's.
func (s *addScanner) peek() byte {
	if s.i < len(s.b) {
		return s.b[s.i]
	}
	if s.over {
		panic(scanError{errBodyTooLarge})
	}
	panic(scanError{errors.New("unexpected end of JSON input")})
}

func (s *addScanner) syntax() {
	panic(scanError{fmt.Errorf("invalid character %q at offset %d", s.b[s.i], s.i)})
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }
