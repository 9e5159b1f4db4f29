package streaming

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"mcf0/internal/bitvec"
	"mcf0/internal/stats"
)

// golden is one pinned absorb result: the SHA-256 of the sketch's
// MarshalBinary bytes, and its estimate.
type golden struct {
	bytes    string
	estimate float64
}

// goldenDigests pins the snapshot bytes and the estimate of Bucketing
// and Minimum after a fixed seeded feed, per universe width. The widths
// span every absorb path: one-multiply hash prefixes (small n), the
// two-multiply prefixes (Minimum at n > 32, Bucketing at n > 32) and the
// 64-bit edge. The estimates were captured before the batched word-kernel
// absorb existed, so a kernel change that moves any estimate fails here
// even when its batch and single paths agree with each other; the bytes
// are pinned apart from them, so that a change to the wire layout alone
// re-pins bytes and leaves every estimate as it stands. Bucketing's bytes
// were re-pinned when its encoder began to write cells in key order.
var goldenDigests = map[string]golden{
	"bucketing/n=1":  {"fcb3ea1c6ba29154c2015e4bac0559682b7345cd4e92b8a6f7f2fa2a0e03faf2", 2},
	"minimum/n=1":    {"3e017d3252287e5e5b6fc90cf2d9a80b180b4627685bb66b21d475338d269327", 2},
	"bucketing/n=8":  {"04bc4f17b0eb2c7ee276fb52f7a2cc2f8bc61c63514f87c11cb28ab6393cf86b", 240},
	"minimum/n=8":    {"45f479d36761327cc3a091306522faf6babb4f746cec9e9d4e3fc0890e27c8b3", 242.76617036606063},
	"bucketing/n=16": {"ddbca2fa38fc77817b8e38107ee151590935c2abc75e7cd5e3b894655e548ee9", 640},
	"minimum/n=16":   {"0cda1042b13d64921f25f04370e5e9528143020699e0e8ffa358cffd6f02deed", 613.6655270305328},
	"bucketing/n=31": {"d34adef6e44e76d389db98b2e692b33a5d35ea7657c3603a90bb8b5f682d18fe", 640},
	"minimum/n=31":   {"ff0c09f00cb08eb476f09990239331ee3207d10b53e29d688cf9325092a45057", 660.1091705294932},
	"bucketing/n=32": {"0a496c4bca02e60b72815fea94551d9eb3fa1c8c8ce56ea047b6467e58656e1c", 544},
	"minimum/n=32":   {"101d6e8c578c05c73c3c748c2ab09aac4f8229f72ec36ffad419e685653679cb", 620.2630082265608},
	"bucketing/n=33": {"6ecfa1e8e30472c6d5a8d7341a3c18a6340d6f9b5345709078831fc1e58ff69a", 640},
	"minimum/n=33":   {"52d0f04880945fd796b95b669e6cbef508257b95849b49f1ea95e4f37c91384d", 685.5070469869235},
	"bucketing/n=48": {"08a52f360c1be5544ae30f5284400d4b3ec4ea9772b28243a59f05fcb877607d", 544},
	"minimum/n=48":   {"3b5c26b40583fb544cc24160f99556b4d89d4a7b1991764c7e9762b32a206d27", 696.874093922258},
	"bucketing/n=63": {"71f6b1608904658c021b4d8a2f139ef62d97c785f3d8bc0090a21076ef63c141", 640},
	"minimum/n=63":   {"2ba5a7278392721114d5facff46383ba47473227b2e017aa7dddfb4553ed0df4", 773.7039989646994},
	"bucketing/n=64": {"79e9ae01f41eb904d63032573f3cd1e8160264a1f539581cc72fc4c7d12768ed", 608},
	"minimum/n=64":   {"c020b1bc3716fe5a7f5c27a4240485b65d234715f18520c405023f7f7a36dcc1", 646.477737445202},
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

// goldenOf returns s's pinned form: the SHA-256 of its snapshot bytes
// and its estimate.
func goldenOf(t *testing.T, s interface {
	Sketch
	MarshalBinary() ([]byte, error)
}) golden {
	t.Helper()
	raw, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(raw)
	return golden{hex.EncodeToString(sum[:]), s.Estimate()}
}

// TestAbsorbGoldenDeterminism checks the pinned bytes and estimates at
// parallelism 1 and 2: fixed-seed snapshot bytes and estimates of both
// hash-prefix sketches must never move under an absorb-path change.
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
			for name, got := range map[string]golden{
				fmt.Sprintf("bucketing/n=%d", n): goldenOf(t, b),
				fmt.Sprintf("minimum/n=%d", n):   goldenOf(t, m),
			} {
				want := goldenDigests[name]
				if got.estimate != want.estimate {
					t.Errorf("%s par=%d: estimate %v, want %v", name, par, got.estimate, want.estimate)
				}
				if got.bytes != want.bytes {
					t.Errorf("%s par=%d: snapshot digest %s, want %s", name, par, got.bytes, want.bytes)
				}
			}
		}
	}
}
