package streaming

import (
	"bytes"
	"errors"
	"runtime"
	"testing"

	"mcf0/internal/bitvec"
	"mcf0/internal/hash"
	"mcf0/internal/kmv"
	"mcf0/internal/stats"
	"mcf0/internal/wire"
)

// codecSketches builds one ingested instance of every sketch kind with
// same-seed options, plus a factory for fresh same-draw siblings.
func codecSketches(n, par int) (map[string]Sketch, func() map[string]Sketch) {
	build := func() map[string]Sketch {
		return map[string]Sketch{
			"bucketing": NewBucketing(n, mergeOpts(71, par)),
			"minimum":   NewMinimum(n, mergeOpts(72, par)),
			"estimation": NewEstimation(n, Options{Epsilon: 0.8, Delta: 0.2,
				Thresh: 8, Iterations: 3, RNG: stats.NewRNG(73), Parallelism: par}),
		}
	}
	return build(), build
}

// Codec round-trip determinism (invariant 6): decode(encode(s)) is
// state-identical to s — same estimate, same canonical re-encoding, and
// bit-identical behaviour under further ingestion.
func TestCodecRoundTripDeterminism(t *testing.T) {
	n := 32
	stream := dupStream(n, 1400, stats.NewRNG(0xc0dec))
	more := dupStream(n, 600, stats.NewRNG(0xc0de))
	for _, par := range []int{1, 4} {
		sketches, _ := codecSketches(n, par)
		for name, s := range sketches {
			feedChunks(s, stream)
			blob := AppendSketch(nil, s)
			dec, err := DecodeSketch(blob, par)
			if err != nil {
				t.Fatalf("par=%d %s: decode: %v", par, name, err)
			}
			if got, want := dec.Estimate(), s.Estimate(); got != want {
				t.Fatalf("par=%d %s: decoded estimate %v != %v", par, name, got, want)
			}
			if got, want := dec.SketchWords(), s.SketchWords(); got != want {
				t.Fatalf("par=%d %s: decoded sketch words %d != %d", par, name, got, want)
			}
			reblob := AppendSketch(nil, dec)
			if !bytes.Equal(blob, reblob) {
				t.Fatalf("par=%d %s: encode(decode(encode)) is not canonical", par, name)
			}
			// Decoded sketches keep ingesting identically to the original.
			feedChunks(s, more)
			feedChunks(dec, more)
			if got, want := dec.Estimate(), s.Estimate(); got != want {
				t.Fatalf("par=%d %s: post-ingest estimate %v != %v", par, name, got, want)
			}
		}
	}
}

// Cross-wire merge differential: marshal→unmarshal→Merge must produce the
// exact state (and estimate) of (a) an in-process Merge of the live halves
// and (b) one sketch ingesting the concatenated stream.
func TestCodecMergeVsSingleDifferential(t *testing.T) {
	n := 32
	stream := dupStream(n, 1600, stats.NewRNG(0x3e63e))
	half := len(stream) / 2
	sketches, fresh := codecSketches(n, 2)
	whole, live, remote := sketches, fresh(), fresh()
	for name := range sketches {
		feedChunks(whole[name], stream)
		feedChunks(live[name], stream[:half])
		feedChunks(remote[name], stream[half:])

		blob := AppendSketch(nil, remote[name])
		dec, err := DecodeSketch(blob, 2)
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		// In-process control: clone the live left half, merge the live right.
		ctl := live[name].Clone()
		if err := ctl.Merge(remote[name]); err != nil {
			t.Fatalf("%s: live merge: %v", name, err)
		}
		if err := live[name].Merge(dec); err != nil {
			t.Fatalf("%s: merge of decoded sketch: %v", name, err)
		}
		if a, b, c := live[name].Estimate(), ctl.Estimate(), whole[name].Estimate(); a != b || a != c {
			t.Fatalf("%s: estimates diverge: wire-merge %v, live-merge %v, single %v",
				name, a, b, c)
		}
	}
	requireBucketingEqual(t, whole["bucketing"].(*Bucketing), live["bucketing"].(*Bucketing))
	requireMinimumEqual(t, whole["minimum"].(*Minimum), live["minimum"].(*Minimum))
	requireEstimationEqual(t, whole["estimation"].(*Estimation), live["estimation"].(*Estimation))
}

// Decoded sketches must still reject foreign draws: two sketches from
// different seeds stay incompatible across the wire.
func TestCodecMergeRejectsForeignDraws(t *testing.T) {
	n := 32
	a := NewBucketing(n, mergeOpts(81, 1))
	b := NewBucketing(n, mergeOpts(82, 1))
	blob := AppendSketch(nil, b)
	dec, err := DecodeSketch(blob, 1)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if err := a.Merge(dec); !errors.Is(err, ErrIncompatibleSketch) {
		t.Fatalf("merge of foreign decoded sketch: got %v, want ErrIncompatibleSketch", err)
	}
}

// Corrupt-input taxonomy: wrong magic, unknown kind, future version,
// truncation at every prefix, and trailing garbage all yield typed errors.
func TestCodecDecodeErrors(t *testing.T) {
	n := 16
	s := NewMinimum(n, mergeOpts(91, 1))
	feedChunks(s, dupStream(n, 200, stats.NewRNG(0x91)))
	blob := AppendSketch(nil, s)

	if _, err := DecodeSketch(nil, 1); err == nil {
		t.Fatal("empty input decoded")
	}
	bad := bytes.Clone(blob)
	bad[0] = 'X'
	if _, err := DecodeSketch(bad, 1); !errors.Is(err, wire.ErrCorrupt) {
		t.Fatalf("bad magic: got %v, want ErrCorrupt", err)
	}
	bad = bytes.Clone(blob)
	bad[2] = 0xee
	if _, err := DecodeSketch(bad, 1); !errors.Is(err, wire.ErrCorrupt) {
		t.Fatalf("unknown kind: got %v, want ErrCorrupt", err)
	}
	bad = bytes.Clone(blob)
	bad[3] = minimumVersion + 1
	var verr *wire.VersionError
	if _, err := DecodeSketch(bad, 1); !errors.As(err, &verr) {
		t.Fatalf("future version: got %v, want VersionError", err)
	} else if verr.Kind != wire.KindMinimum || verr.Version != minimumVersion+1 {
		t.Fatalf("version error carries %+v", verr)
	}
	for cut := 0; cut < len(blob); cut += 7 {
		if _, err := DecodeSketch(blob[:cut], 1); err == nil {
			t.Fatalf("truncation at %d decoded", cut)
		}
	}
	if _, err := DecodeSketch(append(bytes.Clone(blob), 0), 1); !errors.Is(err, wire.ErrCorrupt) {
		t.Fatalf("trailing byte: got %v, want ErrCorrupt", err)
	}
}

// TestBucketingSlabBound pins which Bucketing shapes decode admits: the
// rows bound alone. At ε = 0.025 and the default δ a 32-bit sketch's 82
// cell tables hold more than kmv.MaxSlabWords words while its rows fit,
// and such a sketch must restore from its own snapshot. A table has fewer
// than 4·(thresh+1) int32 entries, so for every threshold the tables stay
// under twice the rows bound; a shape whose rows overflow is still refused.
func TestBucketingSlabBound(t *testing.T) {
	header := func(n, thresh, iters int) []byte {
		blob := wire.AppendHeader(nil, wire.KindBucketing, bucketingVersion)
		blob = wire.AppendInt(blob, n)
		blob = wire.AppendInt(blob, thresh)
		return wire.AppendInt(blob, iters)
	}
	opts := Options{Epsilon: 0.025}.Resolve(0)
	n, thresh, iters := 32, opts.Thresh, opts.Iterations
	if tableWords := iters * tableSize(thresh+1) / 2; tableWords <= kmv.MaxSlabWords {
		t.Fatalf("ε=0.025 tables hold %d words, within the slab bound: case lost its point", tableWords)
	}
	if !fits(wire.KindBucketing, n, thresh, iters) {
		t.Fatalf("thresh %d × %d copies refused", thresh, iters)
	}

	if _, err := DecodeSketch(header(n, 1<<20, 16), 1); !errors.Is(err, wire.ErrCorrupt) {
		t.Fatalf("rows past the slab bound: got %v, want ErrCorrupt", err)
	}

	for thresh := 1; thresh <= kmv.MaxThresh; thresh = thresh*3/2 + 1 {
		if tableSize(thresh+1) >= 4*(thresh+1) {
			t.Fatalf("thresh %d: table of %d entries", thresh, tableSize(thresh+1))
		}
	}
}

// handEstimation hand-builds an n-bit Estimation snapshot of one grid
// cell, given as its function blob, and one Flajolet–Martin copy per
// tracker draw, all still empty. No encoder writes one whose draws
// disagree with n, or whose tracker has other than one copy per grid
// row.
func handEstimation(n int, grid []byte, tracker ...hash.Func) []byte {
	blob := wire.AppendHeader(nil, wire.KindEstimation, estimationVersion)
	for _, v := range []int{n, 1, 1} { // n, thresh, t
		blob = wire.AppendInt(blob, v)
	}
	blob = append(blob, grid...)
	blob = wire.AppendInt(blob, 0) // the cell's max, −1 + 1
	blob = wire.AppendInt(blob, len(tracker))
	for _, h := range tracker {
		blob, _ = hash.AppendFunc(blob, h)
		blob = wire.AppendInt(blob, 0)
	}
	return blob
}

// polyBlob draws s coefficients over GF(2^n) from rng, as one Estimation
// grid cell draws them, and returns their function blob.
func polyBlob(n, s int, rng *stats.RNG) []byte {
	coeffs := make([]uint64, s)
	hash.NewPoly(n, s).Fill(coeffs, rng.Uint64)
	return hash.AppendPoly(nil, n, coeffs)
}

// handGrid hand-builds an n-bit Estimation snapshot of t rows of thresh
// cells whose grid starts with the given coefficient vectors. With one
// vector per cell the frame is complete: empty cells and a tracker of t
// empty copies follow. With fewer it stops after the last vector.
func handGrid(n, thresh, t int, cells ...[]uint64) []byte {
	blob := wire.AppendHeader(nil, wire.KindEstimation, estimationVersion)
	for _, v := range []int{n, thresh, t} {
		blob = wire.AppendInt(blob, v)
	}
	for _, c := range cells {
		blob = hash.AppendPoly(blob, n, c)
	}
	if len(cells) < thresh*t {
		return blob
	}
	for range thresh * t {
		blob = wire.AppendInt(blob, 0)
	}
	blob = wire.AppendInt(blob, t)
	rng := stats.NewRNG(0x6c)
	for range t {
		blob, _ = hash.AppendFunc(blob, hash.NewXor(n, n).Draw(rng.Uint64))
		blob = wire.AppendInt(blob, 0)
	}
	return blob
}

// TestEstimationGridShape checks that the decoder refuses a grid whose
// cells have different coefficient counts, and that a first cell cannot
// size the coefficient slab past what the rest of the input can fill.
func TestEstimationGridShape(t *testing.T) {
	if _, err := DecodeSketch(handGrid(8, 2, 1, []uint64{1, 2}, []uint64{3, 4}), 1); err != nil {
		t.Fatalf("hand-built grid: %v", err)
	}
	for name, blob := range map[string][]byte{
		"second cell longer":  handGrid(8, 2, 1, []uint64{1, 2}, []uint64{3, 4, 5}),
		"second cell shorter": handGrid(8, 1, 2, []uint64{1, 2, 3}, []uint64{4, 5}),
		// 2^24 cells of 1,000 coefficients, t·thresh within fits.
		"grid of 2^24 cells past the input": handGrid(8, 1<<12, 1<<12, make([]uint64, 1000)),
		// 2^14 cells of 1,000 coefficients, one of them present.
		"grid of 2^14 cells past the input": handGrid(8, 1<<7, 1<<7, make([]uint64, 1000), make([]uint64, 1000)),
	} {
		grew, err := decodeAlloc(blob)
		if !errors.Is(err, wire.ErrCorrupt) {
			t.Errorf("%s: got %v, want ErrCorrupt", name, err)
		}
		if grew > 1<<20 {
			t.Errorf("%s: decode allocated %d bytes", name, grew)
		}
	}
}

// TestEstimationDecodeAdmitsNewShapes checks that the input alone bounds
// the decoder's coefficient slab, as New bounds only t·thresh: a frame
// of a shape New accepts (ε = 0.1, so s = 33, thresh 9,600 and 53 rows)
// whose t·thresh·s is past kmv.MaxSlabWords passes the grid bound and
// sizes the slab when the input holds every other cell's bytes, and is
// refused before sizing it one byte short. The cells after the first are
// zero bytes, so either decode ends at ErrCorrupt without writing the
// slab past its first cell.
func TestEstimationDecodeAdmitsNewShapes(t *testing.T) {
	o := Options{Epsilon: 0.1, Iterations: 53}.Resolve(0)
	s := NewEstimation(32, Options{Epsilon: o.Epsilon, Thresh: 1, Iterations: 1}).wise
	cells := o.Thresh * o.Iterations
	if !fits(wire.KindEstimation, 32, o.Thresh, o.Iterations) || uint64(cells)*uint64(s) <= kmv.MaxSlabWords {
		t.Fatalf("%d rows of %d cells of %d coefficients: want a shape New accepts past the slab bound",
			o.Iterations, o.Thresh, s)
	}
	head := handGrid(32, o.Thresh, o.Iterations, make([]uint64, s))
	blob := make([]byte, len(head)+(cells-1)*s*8)
	copy(blob, head)
	slab := uint64(cells) * uint64(s) * 8
	for _, short := range []int{1, 0} {
		grew, err := decodeAlloc(blob[:len(blob)-short])
		if !errors.Is(err, wire.ErrCorrupt) {
			t.Errorf("%d bytes short: got %v, want ErrCorrupt", short, err)
		}
		if sized := grew >= slab; sized != (short == 0) {
			t.Errorf("%d bytes short: decode allocated %d bytes, the slab is %d", short, grew, slab)
		}
	}
}

// decodeAlloc decodes blob and returns the bytes the decode allocated
// and its error.
func decodeAlloc(blob []byte) (uint64, error) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	_, err := DecodeSketch(blob, 1)
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc - before, err
}

// handKeys hand-builds an n-bit Bucketing snapshot of one copy at level 0
// whose one cell holds a key given as its two wire words, with an
// all-zero hash value.
func handKeys(n int, lo, hi uint64) []byte {
	blob := wire.AppendHeader(nil, wire.KindBucketing, bucketingVersion)
	for _, v := range []int{n, 1, 1} { // n, thresh, t
		blob = wire.AppendInt(blob, v)
	}
	blob, _ = hash.AppendFunc(blob, hash.NewToeplitz(n, n).Draw(stats.NewRNG(0x6b).Uint64))
	blob = wire.AppendInt(wire.AppendInt(blob, 0), 1) // level, cells
	blob = wire.AppendUint64(wire.AppendUint64(blob, lo), hi)
	return wire.AppendBitVec(blob, bitvec.New(n))
}

// TestWordBound pins the one element form: every constructor panics on
// a universe wider than 64 bits, and the decoder refuses every form no
// encoder writes — a width above 64, a Toeplitz slot without a
// carry-less kernel, an Estimation draw that is not polynomial, a tracker
// of another width or copy count, and a key with a nonzero high word or
// at or above 2^n.
func TestWordBound(t *testing.T) {
	for name, mk := range map[string]func(n int){
		"bucketing":  func(n int) { NewBucketing(n, Options{Iterations: 1}) },
		"minimum":    func(n int) { NewMinimum(n, Options{Iterations: 1}) },
		"estimation": func(n int) { NewEstimation(n, Options{Iterations: 1, Thresh: 1}) },
	} {
		mk(64)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: constructor accepted a 65-bit universe", name)
				}
			}()
			mk(65)
		}()
	}

	refused := func(what string, blob []byte) {
		t.Helper()
		if _, err := DecodeSketch(blob, 1); !errors.Is(err, wire.ErrCorrupt) {
			t.Errorf("%s: got %v, want ErrCorrupt", what, err)
		}
	}
	for kind, version := range map[byte]byte{wire.KindBucketing: bucketingVersion,
		wire.KindMinimum: minimumVersion, wire.KindEstimation: estimationVersion} {
		refused("65-bit universe", wire.AppendInt(wire.AppendHeader(nil, kind, version), 65))
	}
	rng := stats.NewRNG(0x64)

	b, m := NewBucketing(16, mergeOpts(1, 1)), NewMinimum(16, mergeOpts(2, 1))
	feedChunks(b, dupStream(16, 300, stats.NewRNG(3)))
	feedChunks(m, dupStream(16, 300, stats.NewRNG(4)))
	for name, s := range map[string]Sketch{"bucketing": b, "minimum": m} {
		if _, err := DecodeSketch(AppendSketch(nil, s), 1); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	// The same functions in the general linear form, which carries no
	// kernel.
	b.copies[1].h = hash.NewLinear(b.copies[1].h.A(), b.copies[1].h.B)
	h, _ := m.sk.Copy(1)
	*h = *hash.NewLinear(h.A(), h.B)
	refused("kernel-less bucketing draw", AppendSketch(nil, b))
	refused("kernel-less minimum draw", AppendSketch(nil, m))

	poly, xor := polyBlob(8, 2, rng), hash.NewXor(8, 8).Draw(rng.Uint64)
	if _, err := DecodeSketch(handEstimation(8, poly, xor), 1); err != nil {
		t.Fatalf("hand-built estimation: %v", err)
	}
	lin, _ := hash.AppendFunc(nil, xor)
	refused("linear estimation grid draw", handEstimation(8, lin, xor))
	refused("16-bit tracker in an 8-bit estimation", handEstimation(8, poly, hash.NewXor(16, 16).Draw(rng.Uint64)))
	refused("80-bit tracker in an 8-bit estimation", handEstimation(8, poly, hash.NewXor(80, 80).Draw(rng.Uint64)))
	refused("8->16-bit tracker in an 8-bit estimation", handEstimation(8, poly, hash.NewXor(8, 16).Draw(rng.Uint64)))
	refused("two tracker copies under one grid row", handEstimation(8, poly, xor, xor))
	refused("tracker with no copies", handEstimation(8, poly))

	if _, err := DecodeSketch(handKeys(16, 1<<15, 0), 1); err != nil {
		t.Fatalf("hand-built bucketing cell: %v", err)
	}
	refused("key with a high word", handKeys(16, 1, 1))
	refused("key at 2^n", handKeys(16, 1<<16, 0))
}

// FuzzUnmarshalSketch drives DecodeSketch with corrupt, truncated, and
// bit-flipped snapshots: it must return typed errors, never panic, and any
// accepted input must re-encode canonically, answer Estimate, ingest
// elements of its width and merge a clone of itself.
func FuzzUnmarshalSketch(f *testing.F) {
	n := 16
	stream := dupStream(n, 120, stats.NewRNG(0xf022))
	sketches, _ := codecSketches(n, 1)
	for _, s := range sketches {
		feedChunks(s, stream)
		blob := AppendSketch(nil, s)
		f.Add(blob)
		f.Add(blob[:len(blob)/2])
	}
	f.Add([]byte{})
	f.Add([]byte{'F', '0', wire.KindBucketing, 1})
	rng := stats.NewRNG(0xf023)
	f.Add(handEstimation(8, polyBlob(8, 2, rng), hash.NewXor(80, 80).Draw(rng.Uint64)))
	f.Add(handKeys(16, 1<<15, 0))
	f.Add(handKeys(16, 1<<16, 0))
	f.Add(handGrid(8, 2, 1, []uint64{1, 2}, []uint64{3, 4, 5}))
	f.Add(handGrid(8, 1<<12, 1<<12, make([]uint64, 1000)))
	// The retired Flajolet–Martin and exact-distinct kinds.
	f.Add([]byte{'F', '0', 0x04, 1})
	f.Add([]byte{'F', '0', 0x05, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeSketch(data, 1)
		if err != nil {
			if s != nil {
				t.Fatal("error with non-nil sketch")
			}
			return
		}
		// Accepted input: the sketch must be fully functional and its wire
		// form canonical.
		_ = s.Estimate()
		reblob := AppendSketch(nil, s)
		dec2, err := DecodeSketch(reblob, 1)
		if err != nil {
			t.Fatalf("re-encoded snapshot rejected: %v", err)
		}
		if dec2.Estimate() != s.Estimate() {
			t.Fatal("re-decoded estimate diverges")
		}
		mask := ^uint64(0) >> (64 - SketchBits(s))
		s.ProcessBatch([]uint64{0, 1, 0x9e3779b97f4a7c15 & mask, mask, 1})
		s.ProcessBatch([]uint64{0x5bd1e995 & mask})
		_ = s.Estimate()
		if err := s.Merge(s.Clone()); err != nil {
			t.Fatalf("merging a clone: %v", err)
		}
	})
}

// DecodeSketch decodes one framed sketch message, which must span data
// exactly. parallelism configures the restored sketch's worker pool as
// Options.Parallelism would (estimates are bit-identical at every level).
func DecodeSketch(data []byte, parallelism int) (Sketch, error) {
	r := wire.NewReader(data)
	s := DecodeSketchFrom(r, parallelism)
	if err := r.Close(); err != nil {
		return nil, err
	}
	return s, nil
}
