package encode

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"reflect"
	"testing"

	"mcf0/internal/counting"
	"mcf0/internal/formula"
	"mcf0/internal/stats"
)

// goldenPolyEstDigests pins SHA-256 over Algorithm 7's PerIteration bits,
// Estimate bits and OracleQueries with the Tseitin-encoded tester. The
// values were captured before the tester could fork, so a change to the
// encoding, the trial loop or the SAT-call meter fails here.
var goldenPolyEstDigests = map[string]string{
	"cnf/n=7": "dc0eafd95f30e49ed4c9b7ea3a1d4da84bf7b08c52aabb77286e90c6a05155c9",
	"cnf/n=9": "ba7d5f233f92d17369c8d812bd420546bfa513c5f71f696068ef25b43f584cfa",
}

func estDigest(r counting.Result) string {
	h := sha256.New()
	var w [8]byte
	for _, v := range append(r.PerIteration, r.Estimate) {
		binary.LittleEndian.PutUint64(w[:], math.Float64bits(v))
		h.Write(w[:])
	}
	binary.LittleEndian.PutUint64(w[:], uint64(r.OracleQueries))
	h.Write(w[:])
	return hex.EncodeToString(h.Sum(nil))
}

// polyEstCase is one planted 3-CNF with a range parameter near the
// Lemma 3 window.
type polyEstCase struct {
	name string
	cnf  *formula.CNF
	r    int
}

func polyEstCases() []polyEstCase {
	rng := stats.NewRNG(0x9e57)
	var cs []polyEstCase
	for _, c := range []struct{ n, clauses, r int }{{7, 8, 7}, {9, 12, 8}} {
		cnf, _ := formula.PlantedKCNF(c.n, c.clauses, 3, rng)
		cs = append(cs, polyEstCase{fmt.Sprintf("cnf/n=%d", c.n), cnf, c.r})
	}
	return cs
}

func polyEst(c polyEstCase, par int) counting.Result {
	o := counting.Options{Thresh: 8, Iterations: 3, RNG: stats.NewRNG(0x9e570), Parallelism: par}
	return counting.ApproxModelCountEst(NewPolyTester(c.cnf), c.cnf.N, c.r, o)
}

// TestPolyTesterEstGoldenDeterminism checks the pinned digests at
// parallelism 1 and 2.
func TestPolyTesterEstGoldenDeterminism(t *testing.T) {
	for _, par := range []int{1, 2} {
		for _, c := range polyEstCases() {
			if got, want := estDigest(polyEst(c, par)), goldenPolyEstDigests[c.name]; got != want {
				t.Errorf("%s par=%d: digest %s, want %s", c.name, par, got, want)
			}
		}
	}
}

// TestPolyTesterEstParallelDeterminism: Algorithm 7 over the encoded
// tester reports the same Estimate, PerIteration and OracleQueries at
// parallelism 1, 2 and 4.
func TestPolyTesterEstParallelDeterminism(t *testing.T) {
	for _, c := range polyEstCases() {
		serial := polyEst(c, 1)
		if serial.OracleQueries == 0 {
			t.Fatalf("%s: no SAT queries recorded", c.name)
		}
		for _, par := range []int{2, 4} {
			got := polyEst(c, par)
			if got.Estimate != serial.Estimate || !reflect.DeepEqual(got.PerIteration, serial.PerIteration) ||
				got.OracleQueries != serial.OracleQueries {
				t.Errorf("%s par=%d: (%v, %v, %d), serial (%v, %v, %d)", c.name, par,
					got.Estimate, got.PerIteration, got.OracleQueries,
					serial.Estimate, serial.PerIteration, serial.OracleQueries)
			}
		}
	}
}
