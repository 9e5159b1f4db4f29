// Package wire implements the versioned binary codec primitives shared by
// every serializable sketch in the repository. A top-level message is
//
//	magic "F0" (2 bytes) · kind (1 byte) · version (1 byte) · payload
//
// where kind identifies the structure (one byte per sketch or wrapper
// type, registered below so the space is globally unambiguous) and version
// is bumped whenever that kind's payload layout changes. Decoders reject
// unknown kinds and versions with typed errors — never a panic — so a
// newer node can refuse an older node's snapshot (and vice versa) with a
// diagnosable message instead of silently misreading state.
//
// Payloads are built from three primitives, all little-endian:
//
//   - uvarint: unsigned varint (encoding/binary layout) for counts,
//     widths, levels, and meters;
//   - word slices: a uvarint word count followed by raw 64-bit words —
//     the flat storage of bitvec.BitVec, so slab-backed sketch state
//     serializes and deserializes as straight word copies;
//   - bit vectors: a uvarint bit length followed by its ⌈len/64⌉ words.
//
// Reader is a sticky-error cursor over one message: every accessor
// validates remaining length before touching (or allocating for) the
// input, so corrupt and truncated messages surface as ErrTruncated /
// ErrCorrupt from Err or Close, and adversarial length prefixes can never
// force an allocation larger than the input itself.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"mcf0/internal/bitvec"
)

// Message kinds. The space is shared by every package with a codec so a
// snapshot's first bytes identify its type unambiguously; append new kinds,
// never renumber.
const (
	// internal/streaming sketches.
	KindBucketing  byte = 0x01
	KindMinimum    byte = 0x02
	KindEstimation byte = 0x03
	// 0x04 was streaming.FlajoletMartin, now a tracker inside Estimation's
	// own message, and 0x05 streaming.ExactDistinct, an unbounded set
	// deleted with it; both are retired and never reused.

	// internal/setstream estimators.
	KindDNFStream         byte = 0x10
	KindRangeStream       byte = 0x11
	KindProgressionStream byte = 0x12
	KindAffineStream      byte = 0x13
	// 0x14 was setstream.CNFStream, deleted with that stream; it is
	// retired and never reused.

	// Public mcf0 wrappers.
	KindF0            byte = 0x20
	KindDNFSetF0      byte = 0x21
	KindRangeF0       byte = 0x22
	KindProgressionF0 byte = 0x23
	KindAffineF0      byte = 0x24
)

// KindName returns a diagnostic name for a registered kind byte.
func KindName(kind byte) string {
	switch kind {
	case KindBucketing:
		return "streaming.Bucketing"
	case KindMinimum:
		return "streaming.Minimum"
	case KindEstimation:
		return "streaming.Estimation"
	case KindDNFStream:
		return "setstream.DNFStream"
	case KindRangeStream:
		return "setstream.RangeStream"
	case KindProgressionStream:
		return "setstream.ProgressionStream"
	case KindAffineStream:
		return "setstream.AffineStream"
	case KindF0:
		return "mcf0.F0"
	case KindDNFSetF0:
		return "mcf0.DNFSetF0"
	case KindRangeF0:
		return "mcf0.RangeF0"
	case KindProgressionF0:
		return "mcf0.ProgressionF0"
	case KindAffineF0:
		return "mcf0.AffineF0"
	}
	return fmt.Sprintf("unknown(0x%02x)", kind)
}

// The two magic bytes opening every top-level message.
const (
	Magic0 byte = 'F'
	Magic1 byte = '0'
)

// Typed decode failures. ErrTruncated and ErrCorrupt are sentinels (wrap
// them with context via fmt.Errorf + %w); UnknownKindError and
// VersionError carry the offending bytes.
var (
	// ErrTruncated reports input that ended before the structure it framed.
	ErrTruncated = errors.New("wire: truncated input")
	// ErrCorrupt reports input that is long enough but structurally invalid
	// (bad magic, inconsistent widths, out-of-range counts, trailing bytes).
	ErrCorrupt = errors.New("wire: corrupt input")
)

// UnknownKindError reports a message whose kind byte is not the one the
// decoder expected (or is not registered at all).
type UnknownKindError struct {
	Got  byte
	Want byte
}

func (e *UnknownKindError) Error() string {
	return fmt.Sprintf("wire: message kind %s, want %s", KindName(e.Got), KindName(e.Want))
}

// VersionError reports a message version this build does not understand.
type VersionError struct {
	Kind    byte
	Version byte
	Latest  byte
}

func (e *VersionError) Error() string {
	return fmt.Sprintf("wire: %s snapshot version %d not supported (latest known: %d)",
		KindName(e.Kind), e.Version, e.Latest)
}

// AppendHeader opens a top-level message: magic, kind, version.
func AppendHeader(dst []byte, kind, version byte) []byte {
	return append(dst, Magic0, Magic1, kind, version)
}

// AppendInt appends a non-negative int as a uvarint.
func AppendInt(dst []byte, v int) []byte {
	return binary.AppendUvarint(dst, uint64(v))
}

// AppendUint64 appends a raw little-endian 64-bit word.
func AppendUint64(dst []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(dst, v)
}

// AppendWords appends a length-prefixed word slice.
func AppendWords(dst []byte, ws []uint64) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(ws)))
	for _, w := range ws {
		dst = binary.LittleEndian.AppendUint64(dst, w)
	}
	return dst
}

// AppendBitVec appends a bit vector: uvarint bit length, then its words.
func AppendBitVec(dst []byte, v bitvec.BitVec) []byte {
	dst = binary.AppendUvarint(dst, uint64(v.Len()))
	for _, w := range v.Words() {
		dst = binary.LittleEndian.AppendUint64(dst, w)
	}
	return dst
}

// Reader is a sticky-error decoding cursor. After any accessor trips —
// truncation, a bad length prefix — every later accessor returns zero
// values and Err reports the first failure, so decoders can run straight-
// line and check once.
type Reader struct {
	buf []byte
	pos int
	err error
}

// NewReader wraps one message.
func NewReader(data []byte) *Reader { return &Reader{buf: data} }

// Err returns the first decode failure, or nil.
func (r *Reader) Err() error { return r.err }

// Remaining returns the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.buf) - r.pos }

func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// Corrupt marks the message structurally invalid with context; decoders
// call it when a value is in range for the wire type but impossible for
// the structure (e.g. a minima list that is not sorted).
func (r *Reader) Corrupt(format string, args ...any) {
	r.fail(fmt.Errorf("wire: "+format+": %w", append(args, ErrCorrupt)...))
}

// Header consumes and validates a top-level message header against the
// expected kind, returning the version byte for the caller to dispatch on
// (after checking it against its latest known version via CheckVersion).
func (r *Reader) Header(kind byte) byte {
	if r.err != nil {
		return 0
	}
	if r.Remaining() < 4 {
		r.fail(ErrTruncated)
		return 0
	}
	m0, m1 := r.buf[r.pos], r.buf[r.pos+1]
	gotKind, version := r.buf[r.pos+2], r.buf[r.pos+3]
	r.pos += 4
	if m0 != Magic0 || m1 != Magic1 {
		r.fail(fmt.Errorf("wire: bad magic %#02x%02x: %w", m0, m1, ErrCorrupt))
		return 0
	}
	if gotKind != kind {
		r.fail(&UnknownKindError{Got: gotKind, Want: kind})
		return 0
	}
	return version
}

// PeekKind returns the kind byte of the message without consuming the
// header, so dispatchers can route to the right decoder.
func (r *Reader) PeekKind() (byte, error) {
	if r.err != nil {
		return 0, r.err
	}
	if r.Remaining() < 3 {
		return 0, ErrTruncated
	}
	if r.buf[r.pos] != Magic0 || r.buf[r.pos+1] != Magic1 {
		return 0, fmt.Errorf("wire: bad magic %#02x%02x: %w", r.buf[r.pos], r.buf[r.pos+1], ErrCorrupt)
	}
	return r.buf[r.pos+2], nil
}

// CheckVersion fails the reader with a VersionError unless version ≤
// latest. Returns true when the version is acceptable.
func (r *Reader) CheckVersion(kind, version, latest byte) bool {
	if r.err != nil {
		return false
	}
	if version == 0 || version > latest {
		r.fail(&VersionError{Kind: kind, Version: version, Latest: latest})
		return false
	}
	return true
}

// Byte consumes one byte.
func (r *Reader) Byte() byte {
	if r.err != nil {
		return 0
	}
	if r.Remaining() < 1 {
		r.fail(ErrTruncated)
		return 0
	}
	b := r.buf[r.pos]
	r.pos++
	return b
}

// Uvarint consumes an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.pos:])
	if n <= 0 {
		if n == 0 {
			r.fail(ErrTruncated)
		} else {
			r.fail(fmt.Errorf("wire: uvarint overflow: %w", ErrCorrupt))
		}
		return 0
	}
	r.pos += n
	return v
}

// Int consumes a uvarint bounded by max (inclusive), failing the reader
// with ErrCorrupt when the value exceeds it. Decoders pass the largest
// structurally sensible value, which keeps adversarial counts from
// driving loop bounds or allocation sizes.
func (r *Reader) Int(max int) int {
	v := r.Uvarint()
	if r.err != nil {
		return 0
	}
	if v > uint64(max) {
		r.fail(fmt.Errorf("wire: count %d exceeds bound %d: %w", v, max, ErrCorrupt))
		return 0
	}
	return int(v)
}

// Uint64 consumes a raw little-endian word.
func (r *Reader) Uint64() uint64 {
	if r.err != nil {
		return 0
	}
	if r.Remaining() < 8 {
		r.fail(ErrTruncated)
		return 0
	}
	v := binary.LittleEndian.Uint64(r.buf[r.pos:])
	r.pos += 8
	return v
}

// Words consumes a length-prefixed word slice and appends it to dst. The
// count is validated against the remaining input before anything is
// allocated; on failure dst comes back unchanged.
func (r *Reader) Words(dst []uint64) []uint64 {
	n := r.Uvarint()
	if r.err != nil {
		return dst
	}
	if n > uint64(r.Remaining())/8 { // division, not n*8: huge counts must not wrap
		r.fail(ErrTruncated)
		return dst
	}
	dst = slices.Grow(dst, int(n))
	for range n {
		dst = append(dst, binary.LittleEndian.Uint64(r.buf[r.pos:]))
		r.pos += 8
	}
	return dst
}

// BitVecInto consumes a bit vector of exactly dst.Len() bits into dst —
// the slab-row decode path: the words land directly in the caller's flat
// storage with no intermediate allocation.
func (r *Reader) BitVecInto(dst bitvec.BitVec) {
	nbits := r.Uvarint()
	if r.err != nil {
		return
	}
	if nbits != uint64(dst.Len()) {
		r.fail(fmt.Errorf("wire: bit vector width %d, want %d: %w", nbits, dst.Len(), ErrCorrupt))
		return
	}
	r.bitVecWords(dst)
}

// bitVecWords fills dst's words from the input and validates that the
// excess high bits of the final word are zero (the bitvec invariant every
// comparison relies on).
func (r *Reader) bitVecWords(dst bitvec.BitVec) {
	words := dst.Words()
	if r.Remaining() < len(words)*8 {
		r.fail(ErrTruncated)
		return
	}
	for i := range words {
		words[i] = binary.LittleEndian.Uint64(r.buf[r.pos:])
		r.pos += 8
	}
	if n := dst.Len(); n%64 != 0 && len(words) > 0 {
		if words[len(words)-1]>>(uint(n)%64) != 0 {
			r.fail(fmt.Errorf("wire: bit vector has excess bits set: %w", ErrCorrupt))
		}
	}
}

// Close reports the reader's final state: its first error if any, or
// ErrCorrupt when the message carries unread trailing bytes.
func (r *Reader) Close() error {
	if r.err != nil {
		return r.err
	}
	if r.Remaining() != 0 {
		return fmt.Errorf("wire: %d trailing bytes: %w", r.Remaining(), ErrCorrupt)
	}
	return nil
}
