package setstream

import (
	"bytes"
	"testing"

	"mcf0/internal/formula"
	"mcf0/internal/stats"
	"mcf0/internal/wire"
)

// fuzzStream is the face the codec fuzzer needs from every stream kind.
type fuzzStream interface {
	MarshalBinary() ([]byte, error)
	Estimate() float64
}

// fuzzDecoder runs one whole-message decoder, failing t if it returns a
// stream alongside an error.
type fuzzDecoder func(t *testing.T, data []byte) (fuzzStream, error)

func fuzzDecode[S interface {
	comparable
	fuzzStream
}](decode func([]byte, int) (S, error)) fuzzDecoder {
	return func(t *testing.T, data []byte) (fuzzStream, error) {
		s, err := decode(data, 1)
		if err != nil {
			if s != *new(S) {
				t.Fatal("error with non-nil stream")
			}
			return nil, err
		}
		return s, nil
	}
}

// fuzzDecoders covers the four Decode*StreamFrom decoders through their
// whole-message forms.
var fuzzDecoders = []fuzzDecoder{
	fuzzDecode(DecodeDNFStream),
	fuzzDecode(DecodeRangeStream),
	fuzzDecode(DecodeProgressionStream),
	fuzzDecode(DecodeAffineStream),
}

// fuzzSeedStreams builds one fed stream of every kind.
func fuzzSeedStreams() []fuzzStream {
	opts := func(seed uint64) Options {
		return Options{Thresh: 6, Iterations: 3, RNG: stats.NewRNG(seed), Parallelism: 1}
	}
	d := NewDNFStream(8, opts(1))
	d.ProcessDNFBatch(codecDNFItems(8, 4, 0xf1))
	rs := NewRangeStream([]int{4, 3}, opts(2))
	_ = rs.ProcessRange(formula.MultiRange{Dims: []formula.Range{{Lo: 1, Hi: 12, Bits: 4}, {Lo: 0, Hi: 5, Bits: 3}}})
	ps := NewProgressionStream([]int{4, 3}, opts(3))
	_ = ps.ProcessProgression([]formula.Progression{{A: 1, B: 13, LogStep: 1, Bits: 4}, {A: 0, B: 6, LogStep: 0, Bits: 3}})
	as := NewAffineStream(8, opts(4))
	a, b := randomAffine(8, 3, stats.NewRNG(5))
	as.ProcessAffine(a, b)
	return []fuzzStream{d, rs, ps, as}
}

// FuzzUnmarshalSetStream drives the four set-stream decoders with corrupt,
// truncated and bit-flipped snapshots: they must return typed errors,
// never panic, and an accepted input must re-encode canonically and
// re-decode to the same Estimate.
func FuzzUnmarshalSetStream(f *testing.F) {
	var dnf []byte
	for _, s := range fuzzSeedStreams() {
		blob, _ := s.MarshalBinary()
		f.Add(blob)
		f.Add(blob[:len(blob)/2])
		f.Add(blob[len(blob)/2:])
		if dnf == nil {
			dnf = blob
		}
	}
	f.Add([]byte{})
	// A DNF snapshot under the retired CNF-stream kind 0x14; more
	// dimensions than the bound; dimensions whose total passes it.
	f.Add(append([]byte{dnf[0], dnf[1], 0x14}, dnf[3:]...))
	f.Add(wire.AppendInt(wire.AppendHeader(nil, wire.KindRangeStream, 1), maxStreamDims+1))
	wide := wire.AppendInt(wire.AppendHeader(nil, wire.KindProgressionStream, 1), 2)
	f.Add(wire.AppendInt(wire.AppendInt(wide, maxStreamBits), 1))
	// Headers declaring a huge t × thresh must be rejected before any slab
	// is allocated.
	for _, kind := range []byte{wire.KindDNFStream, wire.KindAffineStream} {
		huge := wire.AppendHeader(nil, kind, 1)
		huge = wire.AppendInt(huge, 1)     // n
		huge = wire.AppendInt(huge, 1<<24) // thresh
		huge = wire.AppendInt(huge, 1<<16) // t
		f.Add(huge)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, decode := range fuzzDecoders {
			s, err := decode(t, data)
			if err != nil {
				continue
			}
			blob, err := s.MarshalBinary()
			if err != nil {
				t.Fatalf("decoded stream refuses to re-encode: %v", err)
			}
			s2, err := decode(t, blob)
			if err != nil {
				t.Fatalf("re-encoded snapshot rejected: %v", err)
			}
			blob2, _ := s2.MarshalBinary()
			if !bytes.Equal(blob, blob2) {
				t.Fatal("re-encoding is not canonical")
			}
			if s2.Estimate() != s.Estimate() {
				t.Fatalf("re-decoded stream diverges: estimate %v vs %v", s2.Estimate(), s.Estimate())
			}
		}
	})
}
