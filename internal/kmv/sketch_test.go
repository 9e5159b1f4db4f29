package kmv

import (
	"bytes"
	"testing"

	"mcf0/internal/bitvec"
	"mcf0/internal/stats"
	"mcf0/internal/wire"
)

// feedSketch offers each copy the hash values of xs under its own draw.
func feedSketch(s *Sketch, xs []uint64) {
	y := bitvec.New(3 * s.N())
	for i := 0; i < s.Copies(); i++ {
		h, set := s.Copy(i)
		for _, x := range xs {
			h.EvalInto(bitvec.FromUint64(x, s.N()), y)
			set.Insert(y)
		}
	}
}

func encode(s *Sketch) []byte { return s.AppendBinary(nil) }

// TestSketchCloneMergeCodec checks the t-copy sketch against one fed
// everything: a clone is independent, a same-draws merge is the union, a
// foreign or misshapen merge is refused untouched, and the codec body
// round-trips canonically under its decode checks.
func TestSketchCloneMergeCodec(t *testing.T) {
	const n, thresh, copies = 12, 8, 5
	mk := func(seed uint64) *Sketch { return NewSketch(n, thresh, copies, stats.NewRNG(seed).Uint64) }
	rng := stats.NewRNG(3)
	xs := make([]uint64, 300)
	for i := range xs {
		xs[i] = rng.Uint64n(1 << n)
	}

	whole, left := mk(1), mk(1)
	feedSketch(whole, xs)
	feedSketch(left, xs[:100])
	fed := encode(left)
	right := left.Clone()
	feedSketch(right, xs[100:])
	if !bytes.Equal(encode(left), fed) {
		t.Fatal("feeding a clone disturbed the original")
	}
	if !left.Merge(right) || !bytes.Equal(encode(left), encode(whole)) || left.Estimate() != whole.Estimate() {
		t.Fatal("same-draws merge differs from one sketch fed both streams")
	}

	before := encode(left)
	for name, o := range map[string]*Sketch{
		"foreign draws": mk(2),
		"other width":   NewSketch(n+1, thresh, copies, stats.NewRNG(1).Uint64),
		"other thresh":  NewSketch(n, thresh+1, copies, stats.NewRNG(1).Uint64),
		"other copies":  NewSketch(n, thresh, copies-1, stats.NewRNG(1).Uint64),
	} {
		if left.Merge(o) || !bytes.Equal(encode(left), before) {
			t.Errorf("%s: merged, or changed the receiver", name)
		}
	}

	r := wire.NewReader(before)
	dec := DecodeSketch(r, n)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encode(dec), before) || dec.Estimate() != left.Estimate() || !left.Merge(dec) {
		t.Fatal("decoded sketch differs from, or will not merge with, the original")
	}
	if r := wire.NewReader(before); DecodeSketch(r, n+1) != nil || r.Err() == nil {
		t.Fatal("a body decoded at the wrong width")
	}
}

// TestFits pins the constructor-side bound to the decoder's: a shape
// fits exactly when its slab is within MaxSlabWords and its counts within
// MaxThresh and MaxCopies.
func TestFits(t *testing.T) {
	for _, tc := range []struct {
		n, thresh, copies int
		want              bool
	}{
		{64, 1 << 12, 1 << 10, true},  // 2^22 rows of 3 words
		{64, 1 << 12, 1 << 12, false}, // 2^24 rows of 3 words
		{21, 1 << 12, 1 << 12, true},  // 2^24 one-word rows: the bound itself
		{22, 1 << 12, 1 << 12, false}, // 2^24 two-word rows
		{1, MaxThresh + 1, 1, false},  // threshold bound
		{1, 1, MaxCopies + 1, false},  // copy bound
		{1 << 16, 150, 82, false},     // 12,300 rows of 3,072 words
		{1 << 16, 150, 36, true},      // 5,400 rows of 3,072 words
	} {
		if got := Fits(tc.n, tc.thresh, tc.copies); got != tc.want {
			t.Errorf("Fits(%d, %d, %d) = %v, want %v", tc.n, tc.thresh, tc.copies, got, tc.want)
		}
	}
}
