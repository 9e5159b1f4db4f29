package setstream

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"testing"

	"mcf0/internal/bitvec"
	"mcf0/internal/formula"
	"mcf0/internal/gf2"
	"mcf0/internal/stats"
)

// goldenStreamDigests pins SHA-256 over each set stream's MarshalBinary ‖
// Estimate bits ‖ a zero word (the query-meter slot of the digest format)
// after a seeded feed, and again after merging a same-seed stream fed the
// rest of the items. The values were captured before the k-min core was
// shared between the streaming sketches, FindMin and the set streams, so
// a change to insertion, merging, pruning or the codec that moves any
// byte or estimate fails here.
var goldenStreamDigests = map[string]string{
	"affine/n=12": "e5e06674c155b47a7af49efd97e1788f42ea3b711026f96f2058d1303bce84a3",
	"affine/n=24": "95e2c7e78323af4a94e4abb6d5713a678139668426b17b99bf8ae58d68862c30",
	"dnf/n=12":    "d24095542838d05e18a2ac8717d8e5e392d99bd898ca10458f971ba1fe8e6235",
	"dnf/n=30":    "c05434136300500bf1a8d07bc7d19a4ecf7a3eaf5f8fe3c7aa3a98cd28b5a9ca",
	"progression": "f91a1687e20bc705242cb9eac29faccf21f7360f9b9ffad7364d7150accb9883",
	"range":       "811d68fa0cc920e6ff2b34f5822b0c09eeedf7f372368d6f9cd6c15a3797aa6c",
}

type goldenStream interface {
	MarshalBinary() ([]byte, error)
	Estimate() float64
}

func goldenWrite(t *testing.T, h hash.Hash, s goldenStream) {
	t.Helper()
	raw, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	h.Write(raw)
	var w [16]byte
	binary.LittleEndian.PutUint64(w[:8], math.Float64bits(s.Estimate()))
	h.Write(w[:])
}

// goldenStreamRun feeds two same-seed streams (a: single items then one
// batch; b: one batch), digests a, merges b into a and digests again.
func goldenStreamRun(t *testing.T, mk func() goldenStream, feed func(s goldenStream, lo, hi int, batch bool),
	merge func(a, b goldenStream) error, items int) string {
	t.Helper()
	h := sha256.New()
	a, b := mk(), mk()
	split := items / 2
	feed(a, 0, split/2, false)
	feed(a, split/2, split, true)
	feed(b, split, items, true)
	goldenWrite(t, h, a)
	if err := merge(a, b); err != nil {
		t.Fatal(err)
	}
	goldenWrite(t, h, a)
	return hex.EncodeToString(h.Sum(nil))
}

// TestSetStreamGoldenDeterminism checks the pinned digests of all four set
// streams at parallelism 1 and 2.
func TestSetStreamGoldenDeterminism(t *testing.T) {
	for _, par := range []int{1, 2} {
		opts := func(seed uint64, thresh, iters int) Options {
			return Options{Thresh: thresh, Iterations: iters, RNG: stats.NewRNG(seed), Parallelism: par}
		}
		got := map[string]string{}

		for _, n := range []int{12, 30} {
			rng := stats.NewRNG(0xd0 + uint64(n))
			fs := make([]*formula.DNF, 16)
			for i := range fs {
				fs[i] = formula.RandomDNF(n, 3, n/3, rng)
			}
			got[fmt.Sprintf("dnf/n=%d", n)] = goldenStreamRun(t,
				func() goldenStream { return NewDNFStream(n, opts(0x1d+uint64(n), 16, 5)) },
				func(s goldenStream, lo, hi int, batch bool) {
					if batch {
						s.(*DNFStream).ProcessDNFBatch(fs[lo:hi])
						return
					}
					for _, f := range fs[lo:hi] {
						s.(*DNFStream).ProcessDNF(f)
					}
				},
				func(a, b goldenStream) error { return a.(*DNFStream).Merge(b.(*DNFStream)) },
				len(fs))
		}

		rrng := stats.NewRNG(0x7a)
		ranges := make([]formula.MultiRange, 12)
		for i := range ranges {
			lo0, lo1 := rrng.Uint64n(28), rrng.Uint64n(12)
			ranges[i] = formula.MultiRange{Dims: []formula.Range{
				{Lo: lo0, Hi: lo0 + rrng.Uint64n(32-lo0), Bits: 5},
				{Lo: lo1, Hi: lo1 + rrng.Uint64n(16-lo1), Bits: 4}}}
		}
		got["range"] = goldenStreamRun(t,
			func() goldenStream { return NewRangeStream([]int{5, 4}, opts(0x2a, 16, 5)) },
			func(s goldenStream, lo, hi int, batch bool) {
				if batch {
					if err := s.(*RangeStream).ProcessRangeBatch(ranges[lo:hi]); err != nil {
						t.Fatal(err)
					}
					return
				}
				for _, r := range ranges[lo:hi] {
					if err := s.(*RangeStream).ProcessRange(r); err != nil {
						t.Fatal(err)
					}
				}
			},
			func(a, b goldenStream) error { return a.(*RangeStream).Merge(b.(*RangeStream)) },
			len(ranges))

		progs := make([][]formula.Progression, 12)
		for i := range progs {
			a := uint64(i)
			progs[i] = []formula.Progression{
				{A: a, B: a + 12 + uint64(i%5), LogStep: i % 2, Bits: 5},
				{A: 0, B: 2*a%14 + 1, LogStep: 0, Bits: 4}}
		}
		got["progression"] = goldenStreamRun(t,
			func() goldenStream { return NewProgressionStream([]int{5, 4}, opts(0x3b, 16, 5)) },
			func(s goldenStream, lo, hi int, batch bool) {
				if batch {
					if err := s.(*ProgressionStream).ProcessProgressionBatch(progs[lo:hi]); err != nil {
						t.Fatal(err)
					}
					return
				}
				for _, p := range progs[lo:hi] {
					if err := s.(*ProgressionStream).ProcessProgression(p); err != nil {
						t.Fatal(err)
					}
				}
			},
			func(a, b goldenStream) error { return a.(*ProgressionStream).Merge(b.(*ProgressionStream)) },
			len(progs))

		for _, n := range []int{12, 24} {
			arng := stats.NewRNG(0xaf + uint64(n))
			as := make([]*gf2.Matrix, 10)
			bs := make([]bitvec.BitVec, 10)
			for i := range as {
				as[i], bs[i] = randomAffine(n, n/3, arng)
			}
			got[fmt.Sprintf("affine/n=%d", n)] = goldenStreamRun(t,
				func() goldenStream { return NewAffineStream(n, opts(0x4c+uint64(n), 16, 5)) },
				func(s goldenStream, lo, hi int, batch bool) {
					if batch {
						s.(*AffineStream).ProcessAffineBatch(as[lo:hi], bs[lo:hi])
						return
					}
					for i := lo; i < hi; i++ {
						s.(*AffineStream).ProcessAffine(as[i], bs[i])
					}
				},
				func(a, b goldenStream) error { return a.(*AffineStream).Merge(b.(*AffineStream)) },
				len(as))
		}

		for name, digest := range got {
			if want := goldenStreamDigests[name]; digest != want {
				t.Errorf("%s par=%d: digest %s, want %s", name, par, digest, want)
			}
		}
	}
}
