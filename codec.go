// Wire codec for the public estimator types: every sketch wrapper
// implements encoding.BinaryMarshaler, and the package-level Decode
// functions are the one way back, with an explicit parallelism (or, for
// DecodeConcurrentF0, replica cap). An F0 snapshots the merged state of
// its replicas, so one message serves every replica cap. Snapshots
// round-trip *complete* state — hash draws, per-copy slab state,
// thresholds, and query meters — so a sketch decoded on another node (or
// after a restart, via cmd/f0 -snapshot/-restore) is Merge-compatible with
// a live sketch built from the same Config: the shared-draw precondition
// is enforced structurally across the wire.
//
// Format: each snapshot is one framed message ("F0" magic, kind byte,
// version byte — see internal/wire); unknown kinds and versions are
// rejected with typed errors, never a panic. Encoding is canonical, and
// decode(encode(s)) is state-identical to s: same estimates, same merge
// behaviour, bit-identical subsequent ingestion (determinism invariant 6).
package mcf0

import (
	"mcf0/internal/setstream"
	"mcf0/internal/streaming"
	"mcf0/internal/wire"
)

// Public-wrapper codec versions; bump when a payload layout changes. The
// four set-stream wrappers share one layout: their kind's header, then
// the inner stream's framed message.
const (
	f0Version          byte = 1
	setStreamF0Version byte = 1
)

// ---- F0 ----

// MarshalBinary snapshots the merged replica state: universe width plus
// the complete framed state of the underlying streaming sketch. The bytes
// depend only on the Config and the set of elements added, not on their
// order, batching or replica count. A failed sketch returns its failure
// (ErrSketchFailed).
func (f *F0) MarshalBinary() ([]byte, error) {
	sk := f.front.MergedClone()
	if sk == nil {
		return nil, f.Err()
	}
	dst := wire.AppendHeader(nil, wire.KindF0, f0Version)
	return streaming.AppendSketch(wire.AppendInt(dst, f.nBits), sk), nil
}

// DecodeF0 restores an F0 snapshot into a sketch capped at one replica.
// parallelism bounds the restored sketch's worker pool as
// Config.Parallelism would (0 selects GOMAXPROCS; estimates are
// bit-identical at every level).
func DecodeF0(data []byte, parallelism int) (*F0, error) {
	return decodeF0(data, parallelism, 1)
}

// DecodeConcurrentF0 restores an F0 snapshot with the given replica cap
// (≤ 0 selects GOMAXPROCS): the decoded sketch becomes replica 0, and
// further replicas are built empty as concurrent writes need them,
// exactly as in a sketch from NewConcurrentF0. Replicas ingest serially
// on the claiming goroutine, so the restored sketch gets parallelism 1.
func DecodeConcurrentF0(data []byte, replicas int) (*F0, error) {
	return decodeF0(data, 1, replicas)
}

// decodeF0 restores an F0 snapshot, which must span data exactly, into a
// front of the given replica cap.
func decodeF0(data []byte, parallelism, replicas int) (*F0, error) {
	r := wire.NewReader(data)
	v := r.Header(wire.KindF0)
	r.CheckVersion(wire.KindF0, v, f0Version)
	nBits := r.Int(64)
	if r.Err() == nil && nBits < 1 {
		r.Corrupt("F0 snapshot over empty universe")
	}
	var s streaming.Sketch
	if r.Err() == nil {
		s = streaming.DecodeSketchFrom(r, parallelism)
	}
	if r.Err() == nil {
		if got := streaming.SketchBits(s); got != nBits {
			r.Corrupt("F0 snapshot is %d bits wide but carries a %d-bit sketch", nBits, got)
		}
	}
	if err := r.Close(); err != nil {
		return nil, err
	}
	return &F0{nBits: nBits, front: streaming.NewConcurrent(s, replicas)}, nil
}

// ---- set streams ----

// marshalSetStream frames a set stream's own message in its wrapper's
// header.
func marshalSetStream(kind byte, s interface{ AppendBinary([]byte) []byte }) ([]byte, error) {
	return s.AppendBinary(wire.AppendHeader(nil, kind, setStreamF0Version)), nil
}

// decodeSetStream reads a marshalSetStream snapshot of the given wrapper
// kind, which must span data exactly, decoding the inner stream with
// from.
func decodeSetStream[S any](data []byte, kind byte, parallelism int, from func(*wire.Reader, int) *S) (*S, error) {
	r := wire.NewReader(data)
	v := r.Header(kind)
	r.CheckVersion(kind, v, setStreamF0Version)
	inner := from(r, parallelism)
	if err := r.Close(); err != nil {
		return nil, err
	}
	return inner, nil
}

// MarshalBinary snapshots the DNF-set-stream sketch.
func (d *DNFSetF0) MarshalBinary() ([]byte, error) {
	return marshalSetStream(wire.KindDNFSetF0, d.inner)
}

// DecodeDNFSetF0 restores a DNFSetF0 snapshot with the given parallelism.
func DecodeDNFSetF0(data []byte, parallelism int) (*DNFSetF0, error) {
	inner, err := decodeSetStream(data, wire.KindDNFSetF0, parallelism, setstream.DecodeDNFStreamFrom)
	if err != nil {
		return nil, err
	}
	return &DNFSetF0{inner}, nil
}

// MarshalBinary snapshots the range-stream sketch.
func (r *RangeF0) MarshalBinary() ([]byte, error) {
	return marshalSetStream(wire.KindRangeF0, r.inner)
}

// DecodeRangeF0 restores a RangeF0 snapshot with the given parallelism.
func DecodeRangeF0(data []byte, parallelism int) (*RangeF0, error) {
	inner, err := decodeSetStream(data, wire.KindRangeF0, parallelism, setstream.DecodeRangeStreamFrom)
	if err != nil {
		return nil, err
	}
	return &RangeF0{inner}, nil
}

// MarshalBinary snapshots the progression-stream sketch.
func (p *ProgressionF0) MarshalBinary() ([]byte, error) {
	return marshalSetStream(wire.KindProgressionF0, p.inner)
}

// DecodeProgressionF0 restores a ProgressionF0 snapshot with the given
// parallelism.
func DecodeProgressionF0(data []byte, parallelism int) (*ProgressionF0, error) {
	inner, err := decodeSetStream(data, wire.KindProgressionF0, parallelism, setstream.DecodeProgressionStreamFrom)
	if err != nil {
		return nil, err
	}
	return &ProgressionF0{inner}, nil
}

// MarshalBinary snapshots the affine-stream sketch.
func (a *AffineF0) MarshalBinary() ([]byte, error) {
	return marshalSetStream(wire.KindAffineF0, a.inner)
}

// DecodeAffineF0 restores an AffineF0 snapshot with the given parallelism.
func DecodeAffineF0(data []byte, parallelism int) (*AffineF0, error) {
	inner, err := decodeSetStream(data, wire.KindAffineF0, parallelism, setstream.DecodeAffineStreamFrom)
	if err != nil {
		return nil, err
	}
	return &AffineF0{inner}, nil
}

// SnapshotKind reports the human-readable kind of a snapshot's first
// bytes ("mcf0.F0", "mcf0.RangeF0", …) without decoding it — cmd/f0 uses
// it to diagnose restoring a snapshot into the wrong mode.
func SnapshotKind(data []byte) (string, error) {
	kind, err := wire.NewReader(data).PeekKind()
	if err != nil {
		return "", err
	}
	return wire.KindName(kind), nil
}
