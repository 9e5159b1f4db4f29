package streaming

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"mcf0/internal/bitvec"
	"mcf0/internal/stats"
)

// goldenDigests pins SHA-256(MarshalBinary ‖ Estimate bits) of Bucketing
// and Minimum after a fixed seeded feed, per universe width. The widths
// span every absorb path: one-multiply hash prefixes (small n), the
// two-multiply prefixes (Minimum at n > 32, Bucketing at n > 32) and the
// 64-bit edge. The values were captured before the batched word-kernel
// absorb existed, so a kernel change that moves any snapshot byte or
// estimate fails here even when its batch and single paths agree with
// each other.
var goldenDigests = map[string]string{
	"bucketing/n=1":  "b3589fdf63016e68ad1a044caee052572488e904a6a848acdc470390d5e615bd",
	"minimum/n=1":    "257b2461e5aa853e39e5f67fa0c5a6aa08cb6901a4129bcf9705a3380b606e10",
	"bucketing/n=8":  "d65f07a97980cc16bc4508bff795014b8a487af2c66ad74b987f882db4a01aee",
	"minimum/n=8":    "c261eff5c0234b668ca5a7fc144fcf2c6f513a8fa075a64bf0d68315df30405b",
	"bucketing/n=16": "9badfd8c2d25c681fdd2b0af01dee7fc91c27cbb3015bfb03ebc991a14142f03",
	"minimum/n=16":   "4f35aa8d7f8c7afca83fd9a09e34c795ab75c0b2d77dbb10384d0e520986a26e",
	"bucketing/n=31": "1568798a58b41e651ec51ea7dc343e59d5239cc2b8e6228b46da6cb9659b6114",
	"minimum/n=31":   "b4e7518bf0a47b26ece6ad66c197d652fdfea8b1aa2fcfce46943316d5ced8de",
	"bucketing/n=32": "92cc528f4bf5fdbb87379b50e0d3bf5de1d8f191525442d69616f96b2fc22b49",
	"minimum/n=32":   "e00e40d0b2b6b5c1989395f2319ae7f984a9973c1692c13d9bc0d26b0e065bdd",
	"bucketing/n=33": "3983930c73e0bef7e4153aaf71771a500d4604acf14b59840710f8248c4c1129",
	"minimum/n=33":   "0d82d31bbfd115d614d8d4d6eeaf183144bb5cd55476abcf07ca7042e861f202",
	"bucketing/n=48": "6d48651ab706c8d5ee94709ea00ba12b725aedf8dca12d9436d558d57c02a2ed",
	"minimum/n=48":   "d97781280e035d985ac4134bbfa5302d58e9b35ed1766b197bc65186c869de29",
	"bucketing/n=63": "580adb10e32d8c08ec010b56940aaa0bb3be3ad45b18afd3513cd0c8f9dd6016",
	"minimum/n=63":   "f12700915f1bdeebc4709ad6a21f1e4efc6b43c8dd7c6075a96ff8343fba9cb8",
	"bucketing/n=64": "f5c68eb6aef255edde3f94eb61f12849ff69d18efe7187473d88728e38c914cb",
	"minimum/n=64":   "1709eadbe7b733ac565950979b0e2cfb56c72ea7cbeba8696675dd31819edf20",
}

// goldenFeed drives s through a seeded mix of one-element and larger
// ProcessBatch chunks (sizes straddling the engine's fan-out gate) over a
// pool of distinct elements drawn with repeats, so copies fill, levels
// rise mid-batch and in-batch duplicates occur.
func goldenFeed(s Sketch, n int, seed uint64) {
	rng := stats.NewRNG(seed)
	pool := make([]uint64, 700)
	for i := range pool {
		pool[i] = bitvec.Random(n, rng.Uint64).Uint64()
	}
	sizes := []int{1, 5, 64, 9, 200, 1, 33, 512}
	for round := 0; round < 16; round++ {
		batch := make([]uint64, sizes[round%len(sizes)])
		for k := range batch {
			batch[k] = pool[rng.Uint64n(uint64(len(pool)))]
		}
		s.ProcessBatch(batch)
	}
}

func goldenDigest(t *testing.T, s interface {
	Sketch
	MarshalBinary() ([]byte, error)
}) string {
	t.Helper()
	raw, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	h.Write(raw)
	var est [8]byte
	binary.LittleEndian.PutUint64(est[:], math.Float64bits(s.Estimate()))
	h.Write(est[:])
	return hex.EncodeToString(h.Sum(nil))
}

// TestAbsorbGoldenDeterminism checks the pinned digests at parallelism 1
// and 2: fixed-seed snapshot bytes and estimates of both hash-prefix
// sketches must never move under an absorb-path change.
func TestAbsorbGoldenDeterminism(t *testing.T) {
	for _, n := range []int{1, 8, 16, 31, 32, 33, 48, 63, 64} {
		for _, par := range []int{1, 2} {
			opts := func(seed uint64) Options {
				return Options{Thresh: 24, Iterations: 5, RNG: stats.NewRNG(seed), Parallelism: par}
			}
			b := NewBucketing(n, opts(uint64(0xb0+n)))
			goldenFeed(b, n, uint64(0xfeed+n))
			m := NewMinimum(n, opts(uint64(0x30+n)))
			goldenFeed(m, n, uint64(0xfeed+n))
			for name, got := range map[string]string{
				fmt.Sprintf("bucketing/n=%d", n): goldenDigest(t, b),
				fmt.Sprintf("minimum/n=%d", n):   goldenDigest(t, m),
			} {
				if want := goldenDigests[name]; got != want {
					t.Errorf("%s par=%d: digest %s, want %s", name, par, got, want)
				}
			}
		}
	}
}
