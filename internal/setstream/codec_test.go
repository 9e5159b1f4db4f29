package setstream

import (
	"bytes"
	"errors"
	"testing"

	"mcf0/internal/formula"
	"mcf0/internal/stats"
	"mcf0/internal/streaming"
	"mcf0/internal/wire"
)

// codecDNFItems builds a deterministic DNF item stream.
func codecDNFItems(n, count int, seed uint64) []*formula.DNF {
	rng := stats.NewRNG(seed)
	items := make([]*formula.DNF, count)
	for i := range items {
		items[i] = formula.RandomDNF(n, 3, 4, rng)
	}
	return items
}

// Round-trip determinism for every stream kind: decode(encode(s)) carries
// the same estimate and sketch state, re-encodes canonically, and keeps
// ingesting bit-identically.
func TestStreamCodecRoundTrip(t *testing.T) {
	n := 12
	items := codecDNFItems(n, 10, 0x5c1)
	more := codecDNFItems(n, 4, 0x5c2)

	type stream interface {
		MarshalBinary() ([]byte, error)
		Estimate() float64
	}
	check := func(name string, s stream, decode func([]byte) (stream, error), ingest func(stream, []*formula.DNF)) {
		t.Helper()
		blob, err := s.MarshalBinary()
		if err != nil {
			t.Fatalf("%s: marshal: %v", name, err)
		}
		dec, err := decode(blob)
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if dec.Estimate() != s.Estimate() {
			t.Fatalf("%s: decoded estimate %v != %v", name, dec.Estimate(), s.Estimate())
		}
		reblob, _ := dec.MarshalBinary()
		if !bytes.Equal(blob, reblob) {
			t.Fatalf("%s: encode(decode(encode)) is not canonical", name)
		}
		if ingest != nil {
			ingest(s, more)
			ingest(dec, more)
			if dec.Estimate() != s.Estimate() {
				t.Fatalf("%s: post-ingest estimate diverges", name)
			}
		}
	}

	d := NewDNFStream(n, testOpts(8001))
	d.ProcessDNFBatch(items)
	check("dnf", d,
		func(b []byte) (stream, error) { return DecodeDNFStream(b, 1) },
		func(s stream, fs []*formula.DNF) { s.(*DNFStream).ProcessDNFBatch(fs) })

	rs := NewRangeStream([]int{5, 4}, testOpts(8002))
	for i := uint64(0); i < 6; i++ {
		if err := rs.ProcessRange(formula.MultiRange{Dims: []formula.Range{
			{Lo: i, Hi: i + 7, Bits: 5}, {Lo: 2 * i, Hi: 2*i + 3, Bits: 4}}}); err != nil {
			t.Fatalf("range item: %v", err)
		}
	}
	check("range", rs,
		func(b []byte) (stream, error) { return DecodeRangeStream(b, 1) }, nil)

	ps := NewProgressionStream([]int{5, 4}, testOpts(8003))
	for i := uint64(0); i < 6; i++ {
		if err := ps.ProcessProgression([]formula.Progression{
			{A: i, B: i + 12, LogStep: 1, Bits: 5},
			{A: 0, B: 2*i + 2, LogStep: 0, Bits: 4}}); err != nil {
			t.Fatalf("progression item: %v", err)
		}
	}
	check("progression", ps,
		func(b []byte) (stream, error) { return DecodeProgressionStream(b, 1) }, nil)

	as := NewAffineStream(n, testOpts(8004))
	arng := stats.NewRNG(0xaf1)
	for i := 0; i < 6; i++ {
		a, b := randomAffine(n, 3, arng)
		as.ProcessAffine(a, b)
	}
	check("affine", as,
		func(b []byte) (stream, error) { return DecodeAffineStream(b, 1) }, nil)
}

func mustMarshal(t *testing.T, m interface{ MarshalBinary() ([]byte, error) }) []byte {
	t.Helper()
	b, err := m.MarshalBinary()
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return b
}

// Cross-wire merge differential: marshal→unmarshal→Merge must equal both
// the in-process Merge and a single stream ingesting every item.
func TestStreamCodecMergeVsSingle(t *testing.T) {
	n := 12
	items := codecDNFItems(n, 12, 0x5c3)
	whole := NewDNFStream(n, testOpts(8011))
	left := NewDNFStream(n, testOpts(8011))
	right := NewDNFStream(n, testOpts(8011))
	whole.ProcessDNFBatch(items)
	left.ProcessDNFBatch(items[:6])
	right.ProcessDNFBatch(items[6:])

	dec, err := DecodeDNFStream(mustMarshal(t, right), 1)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if err := left.Merge(dec); err != nil {
		t.Fatalf("merge of decoded stream: %v", err)
	}
	requireSketchEqual(t, whole.sk, left.sk)
	if whole.Estimate() != left.Estimate() {
		t.Fatal("wire-merged estimate diverges from single-stream estimate")
	}

	// Foreign-seed snapshots must still be rejected structurally.
	foreign := NewDNFStream(n, testOpts(9999))
	foreign.ProcessDNFBatch(items[6:])
	dec2, err := DecodeDNFStream(mustMarshal(t, foreign), 1)
	if err != nil {
		t.Fatalf("decode foreign: %v", err)
	}
	if err := whole.Merge(dec2); !errors.Is(err, streaming.ErrIncompatibleSketch) {
		t.Fatalf("foreign decoded stream merged: %v", err)
	}
}

// Corrupt and truncated snapshots return typed errors; wrong-kind blobs
// are refused by each decoder.
func TestStreamCodecErrors(t *testing.T) {
	n := 10
	d := NewDNFStream(n, testOpts(8021))
	d.ProcessDNFBatch(codecDNFItems(n, 5, 0x5c4))
	blob := mustMarshal(t, d)

	for cut := 0; cut < len(blob); cut += 5 {
		if _, err := DecodeDNFStream(blob[:cut], 1); err == nil {
			t.Fatalf("truncation at %d decoded", cut)
		}
	}
	if _, err := DecodeDNFStream(append(bytes.Clone(blob), 1), 1); !errors.Is(err, wire.ErrCorrupt) {
		t.Fatalf("trailing byte: %v", err)
	}
	bad := bytes.Clone(blob)
	bad[3] = streamVersion + 9
	var verr *wire.VersionError
	if _, err := DecodeDNFStream(bad, 1); !errors.As(err, &verr) {
		t.Fatalf("future version: %v", err)
	}
	// A DNF snapshot is not a range snapshot.
	if _, err := DecodeRangeStream(blob, 1); err == nil {
		t.Fatal("kind confusion decoded")
	} else {
		var kerr *wire.UnknownKindError
		if !errors.As(err, &kerr) {
			t.Fatalf("kind confusion: %v", err)
		}
	}
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (d *DNFStream) MarshalBinary() ([]byte, error) { return d.AppendBinary(nil), nil }

// DecodeDNFStream decodes a snapshot produced by MarshalBinary, which must
// span data exactly. parallelism configures the restored stream's worker
// pool as Options.Parallelism would.
func DecodeDNFStream(data []byte, parallelism int) (*DNFStream, error) {
	r := wire.NewReader(data)
	d := DecodeDNFStreamFrom(r, parallelism)
	if err := r.Close(); err != nil {
		return nil, err
	}
	return d, nil
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (rs *RangeStream) MarshalBinary() ([]byte, error) { return rs.AppendBinary(nil), nil }

// DecodeRangeStream decodes a snapshot produced by MarshalBinary.
func DecodeRangeStream(data []byte, parallelism int) (*RangeStream, error) {
	r := wire.NewReader(data)
	rs := DecodeRangeStreamFrom(r, parallelism)
	if err := r.Close(); err != nil {
		return nil, err
	}
	return rs, nil
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (p *ProgressionStream) MarshalBinary() ([]byte, error) { return p.AppendBinary(nil), nil }

// DecodeProgressionStream decodes a snapshot produced by MarshalBinary.
func DecodeProgressionStream(data []byte, parallelism int) (*ProgressionStream, error) {
	r := wire.NewReader(data)
	p := DecodeProgressionStreamFrom(r, parallelism)
	if err := r.Close(); err != nil {
		return nil, err
	}
	return p, nil
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (s *AffineStream) MarshalBinary() ([]byte, error) { return s.AppendBinary(nil), nil }

// DecodeAffineStream decodes a snapshot produced by MarshalBinary.
func DecodeAffineStream(data []byte, parallelism int) (*AffineStream, error) {
	r := wire.NewReader(data)
	s := DecodeAffineStreamFrom(r, parallelism)
	if err := r.Close(); err != nil {
		return nil, err
	}
	return s, nil
}
