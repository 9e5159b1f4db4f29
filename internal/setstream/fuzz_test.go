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

// fuzzDecoders covers the five Decode*StreamFrom decoders through their
// whole-message forms.
var fuzzDecoders = []fuzzDecoder{
	fuzzDecode(DecodeDNFStream),
	fuzzDecode(DecodeRangeStream),
	fuzzDecode(DecodeProgressionStream),
	fuzzDecode(DecodeAffineStream),
	fuzzDecode(DecodeCNFStream),
}

// queries returns a CNF stream's oracle meter, 0 for the other kinds.
func queries(s fuzzStream) int64 {
	if c, ok := s.(*CNFStream); ok {
		return c.Queries
	}
	return 0
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
	cs := NewCNFStream(8, opts(6))
	cs.ProcessCNF(formula.RandomKCNF(8, 4, 3, stats.NewRNG(7)))
	return []fuzzStream{d, rs, ps, as, cs}
}

// FuzzUnmarshalSetStream drives the five set-stream decoders with corrupt,
// truncated and bit-flipped snapshots: they must return typed errors,
// never panic, and an accepted input must re-encode canonically and
// re-decode to the same Estimate (and CNF query meter).
func FuzzUnmarshalSetStream(f *testing.F) {
	for _, s := range fuzzSeedStreams() {
		blob, _ := s.MarshalBinary()
		f.Add(blob)
		f.Add(blob[:len(blob)/2])
		f.Add(blob[len(blob)/2:])
	}
	f.Add([]byte{})
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
			if s2.Estimate() != s.Estimate() || queries(s2) != queries(s) {
				t.Fatalf("re-decoded stream diverges: estimate %v vs %v, queries %d vs %d",
					s2.Estimate(), s.Estimate(), queries(s2), queries(s))
			}
		}
	})
}
