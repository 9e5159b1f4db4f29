package counting

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"mcf0/internal/formula"
	"mcf0/internal/oracle"
	"mcf0/internal/stats"
)

// goldenMinDigests pins SHA-256 over Algorithm 6's PerIteration bits,
// Estimate bits and OracleQueries for the DNF FindMin and the NP-oracle
// FindMin. The values were captured before FindMin filled a shared k-min
// set, so a change to the walk, its pruning or the estimator that moves
// any trial's estimate or the oracle meter fails here.
var goldenMinDigests = map[string]string{
	"dnf/n=10":    "78f493a3212dfb3454cae03a8a5ab34a347202acbdb6e52326f0215d730a90a0",
	"dnf/n=12":    "d02a5f76a7085e79c91c7500408ff0e418d448107fc811d0b9c94a1e0037edb7",
	"dnf/n=24":    "9884117c4f1b247dde426e73784e8035b73f26fb8d9f6cbe3ab3f67e2d60a02e",
	"dnf/n=40":    "89ca4da7237e32f2e2fea5e888961037fd1c88ef28fea195d4773db665cfad19",
	"oracle/n=10": "e7b23e3fa34d17a2c1be359c2028685d4892649fbf8949b3ceded69541f9bb23",
	"oracle/n=12": "9e96a19e67ca96ea3d5d999bfa1ba230acd62a305c10f3f727ba372fd23c6e79",
	"oracle/n=8":  "48df8883dfb5c9956eeecf6ae6867282478a4139430107d6fca351f5c000d1c9",
	"oracle/n=9":  "ebe77674f2a1ff346c58936e56b4a3f23a89c9ff217bcd906312a34ac0dd64bd",
}

func resultDigest(r Result) string {
	h := sha256.New()
	var w [8]byte
	for _, v := range r.PerIteration {
		binary.LittleEndian.PutUint64(w[:], math.Float64bits(v))
		h.Write(w[:])
	}
	binary.LittleEndian.PutUint64(w[:], math.Float64bits(r.Estimate))
	h.Write(w[:])
	binary.LittleEndian.PutUint64(w[:], uint64(r.OracleQueries))
	h.Write(w[:])
	return hex.EncodeToString(h.Sum(nil))
}

// TestMinimumCountGoldenDeterminism checks the pinned digests at
// parallelism 1 and 2. The cases cover saturated trials (the
// Thresh / frac(max) branch), exhausted images (fewer than Thresh
// solutions: dnf/n=12, oracle/n=9), and multi-word 3n-bit hash values.
func TestMinimumCountGoldenDeterminism(t *testing.T) {
	for _, par := range []int{1, 2} {
		opts := func(seed uint64) Options {
			return Options{Thresh: 24, Iterations: 9, RNG: stats.NewRNG(seed), Parallelism: par}
		}
		got := map[string]string{}
		rng := stats.NewRNG(0x601d)
		for _, c := range []struct{ n, terms, width int }{{10, 6, 3}, {12, 3, 10}, {24, 8, 9}, {40, 5, 20}} {
			d := formula.RandomDNF(c.n, c.terms, c.width, rng)
			got[fmt.Sprintf("dnf/n=%d", c.n)] = resultDigest(ApproxModelCountMinDNF(d, opts(uint64(0x100+c.n))))
		}
		for _, c := range []struct{ n, clauses int }{{8, 10}, {10, 20}, {12, 30}, {9, 36}} {
			cnf := formula.RandomKCNF(c.n, c.clauses, 3, rng)
			got[fmt.Sprintf("oracle/n=%d", c.n)] = resultDigest(
				ApproxModelCountMinOracle(oracle.NewCNFSource(cnf), opts(uint64(0x200+c.n))))
		}
		for name, digest := range got {
			if want := goldenMinDigests[name]; digest != want {
				t.Errorf("%s par=%d: digest %s, want %s", name, par, digest, want)
			}
		}
	}
}
