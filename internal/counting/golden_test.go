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

// goldenMinDigests pins estimateDigest (PerIteration and Estimate bits)
// of Algorithm 6 for the DNF FindMin and the NP-oracle FindMin, and
// goldenMinQueries pins the OracleQueries of the same runs apart from
// them, so a change that moves only the estimates or only the oracle
// meter moves one pin and not the other. The estimates were captured
// before FindMin filled a shared k-min set, so a change to the walk, its
// pruning or the estimator that moves any trial's estimate fails here.
var goldenMinDigests = map[string]string{
	"dnf/n=10":    "3b13b999082d0f26eec8ff9001b52b0b1b80f9788ab53cfdc44f9eaf617d3b4e",
	"dnf/n=12":    "36fbca0373b88f5ef10e956dd62ebe5c8a4635c76dbded3b91f5b52d235014c7",
	"dnf/n=24":    "c6cdf3bf2461e75c31f6146dfc14f9abfbaca544acd2392a69d7562577169280",
	"dnf/n=40":    "b97a8bee38756dc0128e7a15a822c1ac07e02a264d90b047da825f67174f74d5",
	"oracle/n=10": "d337a85e5a70f1d8cd550f17645cdad6204e449b3ff5ade47ab0ccef8b429481",
	"oracle/n=12": "3f66f462f8ad072c57b1516d64233f7bdc46fa9bc5903cb1af35e58ef6739cf7",
	"oracle/n=8":  "ee8fe633dcc9a9f7eebd03a90022b6e97c52b1044f2b846f2e7f9e4a78887cc0",
	"oracle/n=9":  "52f3b92d7f5e8f20af175574580c79d9a16127184d37f65a67f18c1fc9c73763",
}

var goldenMinQueries = map[string]int64{
	"dnf/n=10":    0,
	"dnf/n=12":    0,
	"dnf/n=24":    0,
	"dnf/n=40":    0,
	"oracle/n=10": 3714,
	"oracle/n=12": 5217,
	"oracle/n=8":  2725,
	"oracle/n=9":  1044,
}

// estimateDigest is SHA-256 over r's PerIteration bits and Estimate bits.
func estimateDigest(r Result) string {
	h := sha256.New()
	var w [8]byte
	for _, v := range r.PerIteration {
		binary.LittleEndian.PutUint64(w[:], math.Float64bits(v))
		h.Write(w[:])
	}
	binary.LittleEndian.PutUint64(w[:], math.Float64bits(r.Estimate))
	h.Write(w[:])
	return hex.EncodeToString(h.Sum(nil))
}

// checkGolden compares r against its two pins: the estimate digest and
// the oracle-query count.
func checkGolden(t *testing.T, label string, r Result, digest string, queries int64) {
	t.Helper()
	if got := estimateDigest(r); got != digest {
		t.Errorf("%s: digest %s, want %s", label, got, digest)
	}
	if r.OracleQueries != queries {
		t.Errorf("%s: %d oracle queries, want %d", label, r.OracleQueries, queries)
	}
}

// TestMinimumCountGoldenDeterminism checks both pins at
// parallelism 1 and 2. The cases cover saturated trials (the
// Thresh / frac(max) branch), exhausted images (fewer than Thresh
// solutions: dnf/n=12, oracle/n=9), and multi-word 3n-bit hash values.
func TestMinimumCountGoldenDeterminism(t *testing.T) {
	for _, par := range []int{1, 2} {
		opts := func(seed uint64) Options {
			return Options{Thresh: 24, Iterations: 9, RNG: stats.NewRNG(seed), Parallelism: par}
		}
		got := map[string]Result{}
		rng := stats.NewRNG(0x601d)
		for _, c := range []struct{ n, terms, width int }{{10, 6, 3}, {12, 3, 10}, {24, 8, 9}, {40, 5, 20}} {
			d := formula.RandomDNF(c.n, c.terms, c.width, rng)
			got[fmt.Sprintf("dnf/n=%d", c.n)] = ApproxModelCountMinDNF(d, opts(uint64(0x100+c.n)))
		}
		for _, c := range []struct{ n, clauses int }{{8, 10}, {10, 20}, {12, 30}, {9, 36}} {
			cnf := formula.RandomKCNF(c.n, c.clauses, 3, rng)
			got[fmt.Sprintf("oracle/n=%d", c.n)] = ApproxModelCountMinOracle(oracle.NewCNFSource(cnf), opts(uint64(0x200+c.n)))
		}
		for name, r := range got {
			checkGolden(t, fmt.Sprintf("%s par=%d", name, par), r, goldenMinDigests[name], goldenMinQueries[name])
		}
	}
}
