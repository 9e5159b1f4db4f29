package mcf0

import (
	"bytes"
	"errors"
	"testing"

	"mcf0/internal/hash"
	"mcf0/internal/stats"
	"mcf0/internal/wire"
)

// Round-trip determinism at the public layer: for every F0 algorithm,
// decode(encode(f)) estimates identically, re-encodes canonically, keeps
// ingesting bit-identically, and a decoded snapshot merges with a live
// same-seed sketch exactly as an in-process clone would.
func TestF0CodecRoundTrip(t *testing.T) {
	cfg := Config{Thresh: 24, Iterations: 7, Seed: 21, Parallelism: 1}
	xs := make([]uint64, 2000)
	for i := range xs {
		xs[i] = uint64(i*13) % 900
	}
	for _, alg := range []Algorithm{AlgorithmBucketing, AlgorithmMinimum, AlgorithmEstimation} {
		whole, _ := NewF0(20, alg, cfg)
		left, _ := NewF0(20, alg, cfg)
		right, _ := NewF0(20, alg, cfg)
		whole.AddBatch(xs)
		left.AddBatch(xs[:1000])
		right.AddBatch(xs[1000:])

		blob, err := right.MarshalBinary()
		if err != nil {
			t.Fatalf("alg=%s: marshal: %v", alg, err)
		}
		for _, par := range []int{1, 4} {
			dec, err := DecodeF0(blob, par)
			if err != nil {
				t.Fatalf("alg=%s par=%d: decode: %v", alg, par, err)
			}
			if dec.Estimate() != right.Estimate() {
				t.Fatalf("alg=%s par=%d: decoded estimate %v != %v", alg, par, dec.Estimate(), right.Estimate())
			}
			reblob, err := dec.MarshalBinary()
			if err != nil {
				t.Fatalf("alg=%s: re-marshal: %v", alg, err)
			}
			if !bytes.Equal(blob, reblob) {
				t.Fatalf("alg=%s par=%d: encode(decode(encode)) is not canonical", alg, par)
			}
			// The wire-merged sketch must be bit-identical to single-stream
			// ingestion of the concatenated stream.
			merged := left.Clone()
			if err := merged.Merge(dec); err != nil {
				t.Fatalf("alg=%s par=%d: merge of decoded snapshot: %v", alg, par, err)
			}
			if merged.Estimate() != whole.Estimate() {
				t.Fatalf("alg=%s par=%d: wire-merged estimate %v != whole %v",
					alg, par, merged.Estimate(), whole.Estimate())
			}
			// Decoded sketches keep ingesting bit-identically.
			cont := right.Clone()
			cont.AddBatch(xs[:200])
			dec.AddBatch(xs[:200])
			if dec.Estimate() != cont.Estimate() {
				t.Fatalf("alg=%s par=%d: post-ingest estimate diverges", alg, par)
			}
		}

	}
}

// ConcurrentF0 snapshots ride the F0 wire format: Clone is a
// point-in-time merged view, MarshalBinary/DecodeConcurrentF0 is crash
// recovery, and a restored front resumes bit-identically.
func TestConcurrentF0SnapshotRestore(t *testing.T) {
	cfg := Config{Thresh: 24, Iterations: 5, Seed: 23, Parallelism: 1}
	xs := make([]uint64, 3000)
	for i := range xs {
		xs[i] = uint64(i*7) % 1100
	}
	serial, _ := NewF0(20, AlgorithmMinimum, cfg)
	serial.AddBatch(xs)

	c, err := NewConcurrentF0(20, AlgorithmMinimum, cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	for lo := 0; lo < 1500; lo += 250 {
		c.AddBatch(xs[lo : lo+250])
	}
	snap := c.Clone()
	if snap.Estimate() != c.Estimate() {
		t.Fatalf("snapshot estimate %v != front %v", snap.Estimate(), c.Estimate())
	}
	// The snapshot is detached: feeding the front does not move it.
	before := snap.Estimate()
	c.AddBatch(xs[1500:1750])
	if snap.Estimate() != before {
		t.Fatal("snapshot shares mutable state with the live front")
	}

	blob, err := c.MarshalBinary()
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	restored, err := DecodeConcurrentF0(blob, 3)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	if restored.Replicas() != 3 {
		t.Fatalf("restored with %d replicas, want 3", restored.Replicas())
	}
	// Resume ingestion on the restored front; with the marshal taken at
	// element 1750, finishing the stream must land on the serial estimate.
	restored.AddBatch(xs[1500:])
	c.AddBatch(xs[1750:])
	if restored.Estimate() != serial.Estimate() {
		t.Fatalf("restored estimate %v != serial %v", restored.Estimate(), serial.Estimate())
	}
	if c.Estimate() != serial.Estimate() {
		t.Fatalf("live estimate %v != serial %v", c.Estimate(), serial.Estimate())
	}
}

// Set-stream wrappers round-trip and the decoded snapshot is
// Merge-compatible with a live same-seed sketch.
func TestSetStreamCodecRoundTrip(t *testing.T) {
	cfg := Config{Thresh: 24, Iterations: 5, Seed: 25, Parallelism: 1}

	t.Run("dnf", func(t *testing.T) {
		whole, _ := NewDNFSetF0(12, cfg)
		left, _ := NewDNFSetF0(12, cfg)
		right, _ := NewDNFSetF0(12, cfg)
		sets := [][][]int{
			{{1, 2}, {-3}}, {{4, -5}}, {{6, 7, 8}}, {{-1, -2}}, {{9}, {10, -11}}, {{12, 1}},
		}
		for _, s := range sets {
			mustAdd(t, whole.AddDNF(s))
		}
		for _, s := range sets[:3] {
			mustAdd(t, left.AddDNF(s))
		}
		for _, s := range sets[3:] {
			mustAdd(t, right.AddDNF(s))
		}
		blob := mustMarshal(t, right)
		dec, err := DecodeDNFSetF0(blob, 1)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if dec.Estimate() != right.Estimate() {
			t.Fatalf("decoded estimate %v != %v", dec.Estimate(), right.Estimate())
		}
		if !bytes.Equal(blob, mustMarshal(t, dec)) {
			t.Fatal("encode(decode(encode)) is not canonical")
		}
		if err := left.Merge(dec); err != nil {
			t.Fatalf("merge of decoded snapshot: %v", err)
		}
		if left.Estimate() != whole.Estimate() {
			t.Fatalf("wire-merged estimate %v != whole %v", left.Estimate(), whole.Estimate())
		}
	})

	t.Run("range", func(t *testing.T) {
		r, err := NewRangeF0([]int{8, 8}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		mustAdd(t, r.AddRange([]uint64{0, 0}, []uint64{9, 9}))
		mustAdd(t, r.AddRange([]uint64{100, 100}, []uint64{140, 160}))
		blob := mustMarshal(t, r)
		dec, err := DecodeRangeF0(blob, 1)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if dec.Estimate() != r.Estimate() {
			t.Fatalf("decoded estimate %v != %v", dec.Estimate(), r.Estimate())
		}
		if !bytes.Equal(blob, mustMarshal(t, dec)) {
			t.Fatal("encode(decode(encode)) is not canonical")
		}
		// Decoded snapshots keep validating dimensions on ingestion.
		if err := dec.AddRange([]uint64{0}, []uint64{1}); err == nil {
			t.Fatal("decoded sketch accepted a dimension mismatch")
		}
		if err := r.Merge(dec); err != nil {
			t.Fatalf("merge of decoded snapshot: %v", err)
		}
	})

	t.Run("progression", func(t *testing.T) {
		p, err := NewProgressionF0([]int{8}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		mustAdd(t, p.AddProgression([]uint64{0}, []uint64{20}, []int{2}))
		blob := mustMarshal(t, p)
		dec, err := DecodeProgressionF0(blob, 1)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if dec.Estimate() != p.Estimate() {
			t.Fatalf("decoded estimate %v != %v", dec.Estimate(), p.Estimate())
		}
		if !bytes.Equal(blob, mustMarshal(t, dec)) {
			t.Fatal("encode(decode(encode)) is not canonical")
		}
		if err := p.Merge(dec); err != nil {
			t.Fatalf("merge of decoded snapshot: %v", err)
		}
	})

	t.Run("affine", func(t *testing.T) {
		a, err := NewAffineF0(10, cfg)
		if err != nil {
			t.Fatal(err)
		}
		a.AddAffine([]uint64{0b01, 0b10}, 0b01)
		blob := mustMarshal(t, a)
		dec, err := DecodeAffineF0(blob, 1)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if dec.Estimate() != a.Estimate() {
			t.Fatalf("decoded estimate %v != %v", dec.Estimate(), a.Estimate())
		}
		if !bytes.Equal(blob, mustMarshal(t, dec)) {
			t.Fatal("encode(decode(encode)) is not canonical")
		}
		if err := a.Merge(dec); err != nil {
			t.Fatalf("merge of decoded snapshot: %v", err)
		}
	})
}

func mustAdd(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

func mustMarshal(t *testing.T, m interface{ MarshalBinary() ([]byte, error) }) []byte {
	t.Helper()
	b, err := m.MarshalBinary()
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return b
}

// Every public Merge must refuse incompatible sketches — mismatched
// universes and dimensions as well as foreign hash draws — with an error
// wrapping the one exported sentinel, ErrIncompatibleSketch.
func TestMergeErrorPaths(t *testing.T) {
	cfg := Config{Thresh: 24, Iterations: 5, Seed: 27, Parallelism: 1}
	foreign := cfg
	foreign.Seed = 28

	t.Run("f0", func(t *testing.T) {
		a, _ := NewF0(20, AlgorithmBucketing, cfg)
		b, _ := NewF0(24, AlgorithmBucketing, cfg)
		if err := a.Merge(b); !errors.Is(err, ErrIncompatibleSketch) {
			t.Fatalf("width mismatch: %v", err)
		}
		c, _ := NewF0(20, AlgorithmBucketing, foreign)
		if err := a.Merge(c); !errors.Is(err, ErrIncompatibleSketch) {
			t.Fatalf("foreign draws: %v", err)
		}
		d, _ := NewF0(20, AlgorithmMinimum, cfg)
		if err := a.Merge(d); !errors.Is(err, ErrIncompatibleSketch) {
			t.Fatalf("cross-algorithm merge: %v", err)
		}
	})

	t.Run("dnf", func(t *testing.T) {
		a, _ := NewDNFSetF0(12, cfg)
		b, _ := NewDNFSetF0(10, cfg)
		if err := a.Merge(b); !errors.Is(err, ErrIncompatibleSketch) {
			t.Fatalf("variable-count mismatch: %v", err)
		}
		c, _ := NewDNFSetF0(12, foreign)
		if err := a.Merge(c); !errors.Is(err, ErrIncompatibleSketch) {
			t.Fatalf("foreign draws: %v", err)
		}
	})

	t.Run("range", func(t *testing.T) {
		a, _ := NewRangeF0([]int{8, 8}, cfg)
		b, _ := NewRangeF0([]int{8}, cfg)
		if err := a.Merge(b); !errors.Is(err, ErrIncompatibleSketch) {
			t.Fatalf("dimension-count mismatch: %v", err)
		}
		c, _ := NewRangeF0([]int{8, 9}, cfg)
		if err := a.Merge(c); !errors.Is(err, ErrIncompatibleSketch) {
			t.Fatalf("dimension-width mismatch: %v", err)
		}
		d, _ := NewRangeF0([]int{8, 8}, foreign)
		if err := a.Merge(d); !errors.Is(err, ErrIncompatibleSketch) {
			t.Fatalf("foreign draws: %v", err)
		}
	})

	t.Run("progression", func(t *testing.T) {
		a, _ := NewProgressionF0([]int{8, 8}, cfg)
		b, _ := NewProgressionF0([]int{8}, cfg)
		if err := a.Merge(b); !errors.Is(err, ErrIncompatibleSketch) {
			t.Fatalf("dimension-count mismatch: %v", err)
		}
		c, _ := NewProgressionF0([]int{8, 9}, cfg)
		if err := a.Merge(c); !errors.Is(err, ErrIncompatibleSketch) {
			t.Fatalf("dimension-width mismatch: %v", err)
		}
		d, _ := NewProgressionF0([]int{8, 8}, foreign)
		if err := a.Merge(d); !errors.Is(err, ErrIncompatibleSketch) {
			t.Fatalf("foreign draws: %v", err)
		}
	})

	t.Run("affine", func(t *testing.T) {
		a, _ := NewAffineF0(10, cfg)
		b, _ := NewAffineF0(12, cfg)
		if err := a.Merge(b); !errors.Is(err, ErrIncompatibleSketch) {
			t.Fatalf("width mismatch: %v", err)
		}
		c, _ := NewAffineF0(10, foreign)
		if err := a.Merge(c); !errors.Is(err, ErrIncompatibleSketch) {
			t.Fatalf("foreign draws: %v", err)
		}
	})
}

// Snapshots carry their kind: SnapshotKind names it without decoding, and
// feeding a snapshot to the wrong decoder fails with a typed kind error,
// never a panic or a silently wrong sketch.
func TestSnapshotKindAndConfusion(t *testing.T) {
	cfg := Config{Thresh: 24, Iterations: 5, Seed: 29, Parallelism: 1}
	f, _ := NewF0(20, AlgorithmBucketing, cfg)
	f.Add(3)
	r, _ := NewRangeF0([]int{8, 8}, cfg)
	d, _ := NewDNFSetF0(12, cfg)
	p, _ := NewProgressionF0([]int{8}, cfg)
	a, _ := NewAffineF0(10, cfg)

	for _, tc := range []struct {
		want string
		blob []byte
	}{
		{"mcf0.F0", mustMarshal(t, f)},
		{"mcf0.RangeF0", mustMarshal(t, r)},
		{"mcf0.DNFSetF0", mustMarshal(t, d)},
		{"mcf0.ProgressionF0", mustMarshal(t, p)},
		{"mcf0.AffineF0", mustMarshal(t, a)},
	} {
		got, err := SnapshotKind(tc.blob)
		if err != nil {
			t.Fatalf("%s: %v", tc.want, err)
		}
		if got != tc.want {
			t.Fatalf("SnapshotKind = %q, want %q", got, tc.want)
		}
	}
	if _, err := SnapshotKind([]byte("not a snapshot")); err == nil {
		t.Fatal("garbage blob got a kind")
	}

	fBlob := mustMarshal(t, f)
	var kerr *wire.UnknownKindError
	if _, err := DecodeRangeF0(fBlob, 1); !errors.As(err, &kerr) {
		t.Fatalf("F0 blob decoded as RangeF0: %v", err)
	}
	if _, err := DecodeDNFSetF0(fBlob, 1); !errors.As(err, &kerr) {
		t.Fatalf("F0 blob decoded as DNFSetF0: %v", err)
	}
	if _, err := DecodeF0(mustMarshal(t, r), 1); !errors.As(err, &kerr) {
		t.Fatalf("RangeF0 blob decoded as F0: %v", err)
	}

	// Truncation at the public layer is an error, never a panic.
	for cut := 0; cut < len(fBlob); cut += 7 {
		if _, err := DecodeF0(fBlob[:cut], 1); err == nil {
			t.Fatalf("truncation at %d decoded", cut)
		}
	}
}

// TestDecodeF0RefusesMixedWidthEstimation: an 8-bit Estimation snapshot
// whose nested rough estimator is another width is refused at decode,
// where before it decoded and its first add panicked (a 500 through the
// daemon's boot restore). The same blob with an 8-bit tracker decodes
// and ingests.
func TestDecodeF0RefusesMixedWidthEstimation(t *testing.T) {
	rng := stats.NewRNG(0x8b17)
	blob := func(trackerBits int) []byte {
		b := wire.AppendHeader(nil, wire.KindF0, f0Version)
		b = wire.AppendInt(b, 8)
		b = wire.AppendHeader(b, wire.KindEstimation, 1)
		for _, v := range []int{8, 1, 1} { // n, thresh, t
			b = wire.AppendInt(b, v)
		}
		coeffs := make([]uint64, 2)
		hash.NewPoly(8, 2).Fill(coeffs, rng.Uint64)
		b = hash.AppendPoly(b, 8, coeffs)
		b = wire.AppendInt(b, 0) // the grid cell's max, −1 + 1
		b = wire.AppendInt(b, 1) // tracker copies
		b, _ = hash.AppendFunc(b, hash.NewXor(trackerBits, trackerBits).Draw(rng.Uint64))
		return wire.AppendInt(b, 0)
	}
	f, err := DecodeF0(blob(8), 1)
	if err != nil {
		t.Fatalf("same-width blob: %v", err)
	}
	f.AddBatch([]uint64{1, 2, 255})
	for _, bits := range []int{16, 80} {
		if _, err := DecodeF0(blob(bits), 1); !errors.Is(err, wire.ErrCorrupt) {
			t.Errorf("%d-bit tracker: got %v, want ErrCorrupt", bits, err)
		}
	}
}

// TestDecodeF0RefusesRetiredKinds: an F0 snapshot wrapping a retired
// sketch kind — 0x04, a Flajolet–Martin estimator (copies, then per copy
// an H_xor draw and its max + 1), or 0x05, an exact-distinct set (n, then
// a count of two-word keys), each in the layout its encoder wrote — is
// corrupt to both decoders.
func TestDecodeF0RefusesRetiredKinds(t *testing.T) {
	frame := func(kind byte) []byte {
		b := wire.AppendHeader(nil, wire.KindF0, f0Version)
		return wire.AppendHeader(wire.AppendInt(b, 16), kind, 1)
	}
	fm := wire.AppendInt(frame(0x04), 1)
	fm, _ = hash.AppendFunc(fm, hash.NewXor(16, 16).Draw(stats.NewRNG(0x04).Uint64))
	exact := wire.AppendInt(wire.AppendInt(frame(0x05), 16), 1)
	exact = wire.AppendUint64(wire.AppendUint64(exact, 3), 0)
	for kind, blob := range map[byte][]byte{0x04: wire.AppendInt(fm, 0), 0x05: exact} {
		if _, err := DecodeF0(blob, 1); !errors.Is(err, wire.ErrCorrupt) {
			t.Errorf("kind %#02x: DecodeF0 got %v, want ErrCorrupt", kind, err)
		}
		if _, err := DecodeConcurrentF0(blob, 2); !errors.Is(err, wire.ErrCorrupt) {
			t.Errorf("kind %#02x: DecodeConcurrentF0 got %v, want ErrCorrupt", kind, err)
		}
	}
}
