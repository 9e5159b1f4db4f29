package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"testing"

	"mcf0/internal/bitvec"
)

// TestHeaderRoundTrip: AppendHeader → Header hands back the version and
// leaves the cursor at the payload.
func TestHeaderRoundTrip(t *testing.T) {
	buf := AppendHeader(nil, KindF0, 3)
	buf = append(buf, 0xaa)
	r := NewReader(buf)
	if v := r.Header(KindF0); v != 3 {
		t.Fatalf("version %d, want 3", v)
	}
	if b := r.Byte(); b != 0xaa {
		t.Fatalf("payload byte %#x", b)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestHeaderRejections: short input, bad magic, and kind mismatch each
// surface as their typed error.
func TestHeaderRejections(t *testing.T) {
	for _, short := range [][]byte{nil, {Magic0}, {Magic0, Magic1, KindF0}} {
		r := NewReader(short)
		r.Header(KindF0)
		if !errors.Is(r.Err(), ErrTruncated) {
			t.Errorf("len %d: err %v, want ErrTruncated", len(short), r.Err())
		}
	}

	r := NewReader([]byte{'X', '0', KindF0, 1})
	r.Header(KindF0)
	if !errors.Is(r.Err(), ErrCorrupt) {
		t.Fatalf("bad magic: %v, want ErrCorrupt", r.Err())
	}

	r = NewReader(AppendHeader(nil, KindMinimum, 1))
	r.Header(KindBucketing)
	var uk *UnknownKindError
	if !errors.As(r.Err(), &uk) || uk.Got != KindMinimum || uk.Want != KindBucketing {
		t.Fatalf("kind mismatch: %v", r.Err())
	}
	if msg := uk.Error(); !strings.Contains(msg, "streaming.Minimum") || !strings.Contains(msg, "streaming.Bucketing") {
		t.Fatalf("kind names missing from %q", msg)
	}
}

// TestPeekKind: routing reads the kind without consuming it.
func TestPeekKind(t *testing.T) {
	buf := AppendHeader(nil, KindDNFStream, 2)
	r := NewReader(buf)
	if k, err := r.PeekKind(); err != nil || k != KindDNFStream {
		t.Fatalf("peek: %v %v", k, err)
	}
	// Peek does not consume: Header still succeeds.
	if v := r.Header(KindDNFStream); v != 2 || r.Err() != nil {
		t.Fatalf("header after peek: %d %v", v, r.Err())
	}
	if _, err := NewReader([]byte{Magic0, Magic1}).PeekKind(); !errors.Is(err, ErrTruncated) {
		t.Fatalf("short peek: %v", err)
	}
	if _, err := NewReader([]byte{'x', 'y', 0}).PeekKind(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bad-magic peek: %v", err)
	}
}

// TestCheckVersion: version 0 and versions beyond latest fail with a
// VersionError carrying the offending bytes.
func TestCheckVersion(t *testing.T) {
	r := NewReader(nil)
	if !r.CheckVersion(KindF0, 2, 3) || r.Err() != nil {
		t.Fatal("in-range version rejected")
	}
	for _, bad := range []byte{0, 4, 255} {
		r := NewReader(nil)
		if r.CheckVersion(KindF0, bad, 3) {
			t.Fatalf("version %d accepted", bad)
		}
		var ve *VersionError
		if !errors.As(r.Err(), &ve) || ve.Version != bad || ve.Latest != 3 || ve.Kind != KindF0 {
			t.Fatalf("version %d: err %v", bad, r.Err())
		}
	}
}

// TestPrimitiveRoundTrips: every Append* reads back through its Reader
// accessor, and Close accepts the fully-consumed message.
func TestPrimitiveRoundTrips(t *testing.T) {
	v := bitvec.New(70)
	v.Set(0, true)
	v.Set(64, true)
	v.Set(69, true)

	var buf []byte
	buf = binary.AppendUvarint(buf, 0)
	buf = binary.AppendUvarint(buf, 1<<63)
	buf = AppendInt(buf, 12345)
	buf = AppendUint64(buf, 0xdeadbeefcafef00d)
	buf = AppendWords(buf, []uint64{7, 8, 9})
	buf = AppendWords(buf, nil)
	buf = AppendBitVec(buf, v)
	buf = append(buf, 0x42)

	r := NewReader(buf)
	if got := r.Uvarint(); got != 0 {
		t.Fatalf("uvarint 0: %d", got)
	}
	if got := r.Uvarint(); got != 1<<63 {
		t.Fatalf("uvarint 2^63: %d", got)
	}
	if got := r.Int(20000); got != 12345 {
		t.Fatalf("int: %d", got)
	}
	if got := r.Uint64(); got != 0xdeadbeefcafef00d {
		t.Fatalf("uint64: %#x", got)
	}
	ws := r.Words()
	if len(ws) != 3 || ws[0] != 7 || ws[2] != 9 {
		t.Fatalf("words: %v", ws)
	}
	if ws := r.Words(); len(ws) != 0 {
		t.Fatalf("empty words: %v", ws)
	}
	got := r.BitVec(128)
	if !got.Equal(v) {
		t.Fatalf("bitvec mismatch: %v vs %v", got, v)
	}
	if b := r.Byte(); b != 0x42 || r.Err() != nil {
		t.Fatalf("trailing byte: %#x %v", b, r.Err())
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestBitVecInto: the allocation-free decode path fills existing slab
// storage and rejects width mismatches.
func TestBitVecInto(t *testing.T) {
	src := bitvec.New(100)
	for _, i := range []int{0, 50, 99} {
		src.Set(i, true)
	}
	buf := AppendBitVec(nil, src)

	dst := bitvec.New(100)
	r := NewReader(buf)
	r.BitVecInto(dst)
	if r.Err() != nil || !dst.Equal(src) {
		t.Fatalf("into: %v, equal=%v", r.Err(), dst.Equal(src))
	}

	wrong := bitvec.New(99)
	r = NewReader(buf)
	r.BitVecInto(wrong)
	if !errors.Is(r.Err(), ErrCorrupt) {
		t.Fatalf("width mismatch: %v", r.Err())
	}
}

// TestExcessBitsRejected: a final word with bits set beyond the vector
// length violates the bitvec invariant and must be ErrCorrupt — for both
// the allocating and the in-place decode paths.
func TestExcessBitsRejected(t *testing.T) {
	var buf []byte
	buf = binary.AppendUvarint(buf, 3) // 3-bit vector
	buf = AppendUint64(buf, 0xff)      // bits 3..7 are excess
	r := NewReader(buf)
	r.BitVec(64)
	if !errors.Is(r.Err(), ErrCorrupt) {
		t.Fatalf("BitVec excess bits: %v", r.Err())
	}
	r = NewReader(buf)
	r.BitVecInto(bitvec.New(3))
	if !errors.Is(r.Err(), ErrCorrupt) {
		t.Fatalf("BitVecInto excess bits: %v", r.Err())
	}
}

// TestBoundedReads: adversarial length prefixes are rejected before any
// allocation — Int's bound, Words' remaining-length check, BitVec's
// maxBits — and truncated fixed-width reads fail cleanly.
func TestBoundedReads(t *testing.T) {
	// Int: value exceeds the structural bound.
	r := NewReader(binary.AppendUvarint(nil, 1000))
	r.Int(999)
	if !errors.Is(r.Err(), ErrCorrupt) {
		t.Fatalf("Int bound: %v", r.Err())
	}
	// Int: bound is inclusive.
	r = NewReader(binary.AppendUvarint(nil, 999))
	if got := r.Int(999); got != 999 || r.Err() != nil {
		t.Fatalf("Int inclusive bound: %d %v", got, r.Err())
	}

	// Words: count claims far more than the input holds; must not allocate.
	r = NewReader(binary.AppendUvarint(nil, 1<<40))
	if ws := r.Words(); ws != nil || !errors.Is(r.Err(), ErrTruncated) {
		t.Fatalf("Words overclaim: %v %v", ws, r.Err())
	}
	// Words: count * 8 overflow guard — n so large n*8 wraps.
	r = NewReader(binary.AppendUvarint(nil, 1<<61))
	if ws := r.Words(); ws != nil || r.Err() == nil {
		t.Fatalf("Words overflow count: %v %v", ws, r.Err())
	}

	// BitVec: bit length beyond maxBits.
	r = NewReader(binary.AppendUvarint(nil, 4096))
	r.BitVec(1024)
	if !errors.Is(r.Err(), ErrCorrupt) {
		t.Fatalf("BitVec maxBits: %v", r.Err())
	}
	// BitVec: valid length but missing words.
	r = NewReader(binary.AppendUvarint(nil, 128))
	r.BitVec(1024)
	if !errors.Is(r.Err(), ErrTruncated) {
		t.Fatalf("BitVec truncated words: %v", r.Err())
	}

	// Uint64 and Byte on short input.
	r = NewReader([]byte{1, 2, 3})
	r.Uint64()
	if !errors.Is(r.Err(), ErrTruncated) {
		t.Fatalf("Uint64 short: %v", r.Err())
	}
	r = NewReader(nil)
	r.Byte()
	if !errors.Is(r.Err(), ErrTruncated) {
		t.Fatalf("Byte empty: %v", r.Err())
	}
}

// TestUvarintFailures: truncated and overlong varints are distinguished.
func TestUvarintFailures(t *testing.T) {
	// All continuation bits, then the input ends.
	r := NewReader([]byte{0x80, 0x80})
	r.Uvarint()
	if !errors.Is(r.Err(), ErrTruncated) {
		t.Fatalf("truncated uvarint: %v", r.Err())
	}
	// 11 bytes of continuation: overflow, corrupt rather than truncated.
	over := make([]byte, 11)
	for i := range over {
		over[i] = 0x80
	}
	over[10] = 0x02
	r = NewReader(over)
	r.Uvarint()
	if !errors.Is(r.Err(), ErrCorrupt) {
		t.Fatalf("overlong uvarint: %v", r.Err())
	}
}

// TestStickyError: after the first failure every accessor returns zero
// values without advancing, Err keeps reporting the first failure, and
// Close returns it too.
func TestStickyError(t *testing.T) {
	buf := AppendUint64(AppendHeader(nil, KindF0, 1), 77)
	r := NewReader(buf)
	r.Header(KindMinimum) // wrong kind: first failure
	first := r.Err()
	if first == nil {
		t.Fatal("no error recorded")
	}
	pos := r.Remaining()
	if b := r.Byte(); b != 0 {
		t.Fatalf("Byte after error: %#x", b)
	}
	if v := r.Uvarint(); v != 0 {
		t.Fatalf("Uvarint after error: %d", v)
	}
	if v := r.Uint64(); v != 0 {
		t.Fatalf("Uint64 after error: %d", v)
	}
	if ws := r.Words(); ws != nil {
		t.Fatalf("Words after error: %v", ws)
	}
	if v := r.BitVec(64); v.Len() != 0 {
		t.Fatalf("BitVec after error: %v", v)
	}
	if _, err := r.PeekKind(); err != first {
		t.Fatalf("PeekKind after error: %v", err)
	}
	if r.CheckVersion(KindF0, 1, 1) {
		t.Fatal("CheckVersion true after error")
	}
	if r.Remaining() != pos {
		t.Fatal("accessor advanced the cursor after the error")
	}
	if r.Err() != first || r.Close() != first {
		t.Fatalf("first error not sticky: Err=%v Close=%v", r.Err(), r.Close())
	}
}

// TestCloseTrailingBytes: a structurally valid message with unread bytes
// is rejected at Close, naming the count.
func TestCloseTrailingBytes(t *testing.T) {
	buf := binary.AppendUvarint(AppendHeader(nil, KindF0, 1), 5)
	buf = append(buf, 0xde, 0xad)
	r := NewReader(buf)
	r.Header(KindF0)
	r.Uvarint()
	err := r.Close()
	if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "2 trailing bytes") {
		t.Fatalf("trailing bytes: %v", err)
	}
}

// TestCorrupt: the decoder-side escape hatch wraps ErrCorrupt with
// context and is sticky like every other failure.
func TestCorrupt(t *testing.T) {
	r := NewReader([]byte{9})
	r.Corrupt("minima not sorted at %d", 4)
	err := r.Err()
	if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "minima not sorted at 4") {
		t.Fatalf("Corrupt: %v", err)
	}
	r.Corrupt("second failure")
	if r.Err() != err {
		t.Fatal("Corrupt overwrote the first error")
	}
}

// TestKindName: every registered kind has a diagnostic name; unknown
// bytes, the retired kinds among them, render their hex.
func TestKindName(t *testing.T) {
	kinds := []byte{KindBucketing, KindMinimum, KindEstimation, KindDNFStream,
		KindRangeStream, KindProgressionStream, KindAffineStream, KindF0,
		KindDNFSetF0, KindRangeF0, KindProgressionF0, KindAffineF0}
	seen := map[string]bool{}
	for _, k := range kinds {
		name := KindName(k)
		if strings.HasPrefix(name, "unknown") {
			t.Errorf("kind %#02x unnamed", k)
		}
		if seen[name] {
			t.Errorf("kind name %q duplicated", name)
		}
		seen[name] = true
	}
	if got := KindName(0xEE); got != "unknown(0xee)" {
		t.Errorf("unknown kind name %q", got)
	}
	for _, retired := range []byte{0x04, 0x05, 0x14} {
		if got, want := KindName(retired), fmt.Sprintf("unknown(0x%02x)", retired); got != want {
			t.Errorf("retired kind %#02x named %q", retired, got)
		}
	}
}

// BitVec consumes a bit vector bounded by maxBits, allocating its storage.
func (r *Reader) BitVec(maxBits int) bitvec.BitVec {
	nbits := r.Int(maxBits)
	if r.err != nil {
		return bitvec.BitVec{}
	}
	v := bitvec.New(nbits)
	r.bitVecWords(v)
	return v
}
