package handlers

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"unicode/utf16"
	"unicode/utf8"

	"mcf0/internal/server/middleware"
)

// The add body, {"elements":[…]}, and the count body, a formula of up to
// 2^20 literals, are scanned by hand: through encoding/json (reflection,
// plus one U64.UnmarshalJSON per element or one slice per clause) their
// decode cost a large share of the work they ask for. Each route accepts
// and rejects exactly what decodeBody does with its request type, decoded
// values included — FuzzAddBody and FuzzCountBody hold them to that
// reference — so both keep the contract of every other route. scanner is
// the lexer they share; each route brings its own field table.

// maxNestingDepth is encoding/json's scanner limit: the 10001st open
// bracket is a syntax error.
const maxNestingDepth = 10000

// maxPooled bounds the buffers a request may return to a pool, so one
// large body cannot pin its memory for the daemon's lifetime.
const maxPooled = 1 << 20

// grown doubles the capacity of a full s, but never past limit (len(s)
// < limit): a body's decoded values cost O(values) bytes in all, and at
// most limit of them are stored.
func grown[E any](s []E, limit int) []E {
	return append(make([]E, 0, min(max(2*len(s), 64), limit)), s...)
}

// errBodyTooLarge marks a body whose decode needed bytes past the limit.
var errBodyTooLarge = errors.New("request body too large")

// readBody reads the body, capped at limit bytes, into buf. over reports
// that the body went on past the cap; buf then holds its first limit
// bytes, which is all json.Decoder would have scanned either.
func readBody(w http.ResponseWriter, r *http.Request, limit int64, buf []byte) (_ []byte, over bool, err error) {
	body := http.MaxBytesReader(w, r.Body, limit)
	// Trust a declared length only up to what the pool keeps: a client
	// may declare megabytes and send nothing.
	declared := min(r.ContentLength, limit)
	if n := min(declared, maxPooled); n >= int64(cap(buf)) {
		buf = make([]byte, 0, n+1) // +1: the read that sees EOF needs room
	}
	buf = buf[:0]
	for {
		if len(buf) == cap(buf) {
			// Double, except that a body which has sent maxPooled bytes
			// of its declared length gets the rest in one step: O(body)
			// bytes in all either way.
			size := max(2*len(buf), 512)
			if rest := declared - int64(len(buf)); len(buf) >= maxPooled && rest >= 0 {
				size = len(buf) + int(rest) + 1
			}
			buf = append(make([]byte, 0, size), buf...)
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

// bodyError writes the 4xx decodeBody writes for err, a readBody or
// scanner failure, and reports whether there was one.
func (api *API) bodyError(w http.ResponseWriter, err error) bool {
	switch {
	case err == nil:
		return false
	case errors.Is(err, errBodyTooLarge):
		middleware.WriteError(w, http.StatusRequestEntityTooLarge, "body_too_large",
			fmt.Sprintf("request body exceeds %d bytes", api.maxBody()))
	default:
		middleware.WriteError(w, http.StatusBadRequest, "bad_request", "malformed request body: "+err.Error())
	}
	return true
}

// scanner decodes one request body. A syntax error, or the end of the
// buffer inside the value, unwinds the recursion as a scanError panic
// that run returns. A well-formed value of the wrong type (an unknown
// field, an element that is no uint64) is kept in bad and reported only
// once the whole value has scanned, as encoding/json reports it only
// after reading the value.
type scanner struct {
	b    []byte
	i    int
	over bool  // b stops at the body limit; the body went on past it
	bad  error // first type error
}

// scanError carries a scanner failure up to run's recover.
type scanError struct{ err error }

// run scans the body as one JSON object, or null, whose keys bind to
// fields as encoding/json binds keys to struct fields; value scans the
// value of fields[f], its first byte next. err is errBodyTooLarge when
// the decode ran into the body limit, any other error a malformed body.
func (s *scanner) run(fields []string, value func(f int)) (err error) {
	defer func() {
		if r := recover(); r != nil {
			e, ok := r.(scanError)
			if !ok {
				panic(r)
			}
			err = e.err
		}
	}()
	return s.top(fields, value)
}

func (s *scanner) top(fields []string, value func(f int)) error {
	switch c := s.more(); c {
	case '{':
		s.object(fields, value)
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

// object scans the request object; a key no field binds is an unknown
// field, its value skipped, and a repeated key is scanned again.
func (s *scanner) object(fields []string, value func(f int)) {
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
		f := s.key(fields)
		if f < 0 && s.bad == nil {
			s.bad = fmt.Errorf("unknown field %s", s.b[start:s.i])
		}
		s.colon()
		if f < 0 {
			s.skip(1)
		} else {
			value(f)
		}
		if s.next('}') {
			return
		}
	}
}

// key scans an object key and returns the index of the field
// encoding/json binds it to, or -1: the key is unescaped, then compared
// with bytes.EqualFold, so "ELEMENTS" and "elementſ" (long s) bind to
// "elements" and "Kind" (Kelvin sign) to "kind".
func (s *scanner) key(fields []string) int {
	start := s.i
	esc := s.str()
	k := s.b[start+1 : s.i-1]
	if esc {
		var arr [64]byte
		k = unquote(arr[:0], k)
	}
	for f, name := range fields {
		if bytes.EqualFold(k, []byte(name)) {
			return f
		}
	}
	return -1
}

// unquote appends the body of a JSON string, already checked by str, to
// dst as encoding/json decodes it: escapes resolved, and a lone or
// mismatched surrogate and each byte of invalid UTF-8 replaced by U+FFFD.
func unquote(dst, raw []byte) []byte {
	for i := 0; i < len(raw); {
		switch c := raw[i]; {
		case c == '\\' && raw[i+1] == 'u':
			r := hex4(raw[i+2 : i+6])
			i += 6
			if utf16.IsSurrogate(r) {
				r2 := rune(-1)
				if i+6 <= len(raw) && raw[i] == '\\' && raw[i+1] == 'u' {
					r2 = hex4(raw[i+2 : i+6])
				}
				if r = utf16.DecodeRune(r, r2); r != utf8.RuneError {
					i += 6 // a valid pair
				}
			}
			dst = utf8.AppendRune(dst, r)
		case c == '\\':
			dst = append(dst, unescape[raw[i+1]])
			i += 2
		case c < utf8.RuneSelf:
			dst = append(dst, c)
			i++
		default:
			r, n := utf8.DecodeRune(raw[i:])
			dst = utf8.AppendRune(dst, r)
			i += n
		}
	}
	return dst
}

// unescape maps the byte after a backslash to the byte it stands for.
var unescape = [256]byte{'"': '"', '\\': '\\', '/': '/', 'b': '\b', 'f': '\f', 'n': '\n', 'r': '\r', 't': '\t'}

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

// u64 scans one value, depth arrays and objects deep, and decodes it as
// U64.UnmarshalJSON does: a bare JSON number that strconv.ParseUint
// accepts, or a string of one or more ASCII digits. ok is false for any
// other well-formed value, null included.
func (s *scanner) u64(depth int) (v uint64, ok bool) {
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
		s.skip(depth)
		return 0, false
	}
	if s.i < len(s.b) && (s.b[s.i] == '.' || s.b[s.i]|0x20 == 'e') {
		s.fracExp()
		return 0, false
	}
	return v, ok
}

// integer scans one value, depth arrays and objects deep, and decodes it
// as encoding/json decodes a number into an int: strconv.ParseInt at
// strconv.IntSize bits. ok is false for any other well-formed value, a
// fraction or an exponent included.
func (s *scanner) integer(depth int) (v int, ok bool) {
	c := s.b[s.i]
	if c != '-' && (c < '0' || c > '9') {
		s.skip(depth)
		return 0, false
	}
	neg := c == '-'
	if neg {
		s.i++
	}
	var mag uint64
	switch c := s.peek(); {
	case c == '0':
		s.i++
		ok = true
	case '1' <= c && c <= '9':
		mag, ok = s.digits()
	default:
		s.syntax()
	}
	if s.i < len(s.b) && (s.b[s.i] == '.' || s.b[s.i]|0x20 == 'e') {
		s.fracExp()
		return 0, false
	}
	if neg {
		// -mag wraps to the right int for every mag up to -math.MinInt.
		return int(-mag), ok && mag <= math.MaxInt+1
	}
	return int(mag), ok && mag <= math.MaxInt
}

// float scans one value, depth arrays and objects deep, and decodes it
// as encoding/json decodes a number into a float64: strconv.ParseFloat,
// so 1e400 is out of range. ok is false for any other well-formed value.
func (s *scanner) float(depth int) (float64, bool) {
	start := s.i
	if c := s.b[s.i]; c != '-' && (c < '0' || c > '9') {
		s.skip(depth)
		return 0, false
	}
	s.skip(depth)
	v, err := strconv.ParseFloat(string(s.b[start:s.i]), 64)
	return v, err == nil
}

// text scans one value, depth arrays and objects deep, and decodes it as
// encoding/json decodes a string. ok is false for any other well-formed
// value.
func (s *scanner) text(depth int) (string, bool) {
	if s.b[s.i] != '"' {
		s.skip(depth)
		return "", false
	}
	start := s.i
	esc := s.str()
	raw := s.b[start+1 : s.i-1]
	if !esc && utf8.Valid(raw) {
		return string(raw), true
	}
	return string(unquote(nil, raw)), true
}

// digits consumes a run of ASCII digits as a decimal uint64; ok is false
// when it overflows.
func (s *scanner) digits() (v uint64, ok bool) {
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

// skip scans one well-formed JSON value of any kind; depth counts the
// arrays and objects around it.
func (s *scanner) skip(depth int) {
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
func (s *scanner) fracExp() {
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
func (s *scanner) digits1() {
	if c := s.peek(); c < '0' || c > '9' {
		s.syntax()
	}
	s.digits()
}

// str scans a JSON string and reports whether it holds an escape.
func (s *scanner) str() (esc bool) {
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

func (s *scanner) literal(lit string) {
	for k := range len(lit) {
		if s.peek() != lit[k] {
			s.syntax()
		}
		s.i++
	}
}

// colon consumes the ':' after an object key and the whitespace around
// it, leaving the value's first byte next.
func (s *scanner) colon() {
	if s.more() != ':' {
		s.syntax()
	}
	s.i++
	s.more()
}

// next consumes the ',' or closing end after a container member and
// reports whether it was the end; after a ',' the next member's first
// byte is next.
func (s *scanner) next(end byte) bool {
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

// comma consumes the common separator, a ',' with the next member's
// first byte right after it, and reports whether it was there; the
// array loops try it before next.
func (s *scanner) comma() bool {
	if s.i+1 < len(s.b) && s.b[s.i] == ',' && !isSpace(s.b[s.i+1]) {
		s.i++
		return true
	}
	return false
}

func (s *scanner) ws() {
	b, i := s.b, s.i
	for i < len(b) && isSpace(b[i]) {
		i++
	}
	s.i = i
}

// more skips whitespace and returns the next byte.
func (s *scanner) more() byte {
	s.ws()
	return s.peek()
}

// peek returns the next byte. The buffer ending first means the value
// goes on past it: past the body limit that is the limit's fault,
// otherwise the body's.
func (s *scanner) peek() byte {
	if s.i < len(s.b) {
		return s.b[s.i]
	}
	if s.over {
		panic(scanError{errBodyTooLarge})
	}
	panic(scanError{errors.New("unexpected end of JSON input")})
}

func (s *scanner) syntax() {
	panic(scanError{fmt.Errorf("invalid character %q at offset %d", s.b[s.i], s.i)})
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }
