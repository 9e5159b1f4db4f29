package distributed

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"mcf0/internal/formula"
	"mcf0/internal/stats"
)

// goldenMinimumDigests pins SHA-256 over the distributed Minimum
// protocol's PerIteration bits, Estimate bits and both Comm counters. The
// values were captured before sites and coordinator shared the k-min core,
// so a change to the site sketches, the coordinator merge or the bit
// accounting fails here.
var goldenMinimumDigests = map[string]string{
	"small/k=1": "c5bff62debd4d26f3a79689350da86571f24b185d18701b60ca033572a7c4a62",
	"small/k=3": "f936bc2b231e128e998215bc0e6cc09d199eedf014823be1ae198bdb3c535e7f",
	"tiny/k=2":  "a23680612904ed1aa16b000d3aa4d7c846d75bda491e08b2022a5ee3b70b00b3",
	"wide/k=1":  "83acd597f6d5780b981415123039cb6e82d886528d4b493f5a076f4da3be7e5b",
	"wide/k=4":  "d1a5383902a8663ae2e988708cfb572123c18277aa2506052e9181143a03b162",
}

// TestMinimumProtocolGoldenDeterminism checks the pinned digests for
// several site counts at parallelism 1 and 2.
func TestMinimumProtocolGoldenDeterminism(t *testing.T) {
	rng := stats.NewRNG(0xd157)
	small := formula.RandomDNF(10, 6, 7, rng) // fewer solutions than Thresh at each of 3 sites
	tiny := formula.RandomDNF(10, 2, 8, rng)  // fewer solutions than Thresh overall
	wide := formula.RandomDNF(24, 9, 10, rng) // 72-bit hash values
	for _, par := range []int{1, 2} {
		got := map[string]string{}
		for _, c := range []struct {
			name string
			d    *formula.DNF
			k    int
		}{{"small/k=1", small, 1}, {"small/k=3", small, 3}, {"tiny/k=2", tiny, 2}, {"wide/k=1", wide, 1}, {"wide/k=4", wide, 4}} {
			o := Options{Thresh: 24, Iterations: 9, RNG: stats.NewRNG(0x3a1), Parallelism: par}
			r := Minimum(Split(c.d, c.k), o)
			h := sha256.New()
			var w [8]byte
			for _, v := range append(r.PerIteration, r.Estimate) {
				binary.LittleEndian.PutUint64(w[:], math.Float64bits(v))
				h.Write(w[:])
			}
			for _, v := range []int64{r.Comm.CoordToSites, r.Comm.SitesToCoord} {
				binary.LittleEndian.PutUint64(w[:], uint64(v))
				h.Write(w[:])
			}
			got[c.name] = hex.EncodeToString(h.Sum(nil))
		}
		for name, digest := range got {
			if want := goldenMinimumDigests[name]; digest != want {
				t.Errorf("%s par=%d: digest %s, want %s", name, par, digest, want)
			}
		}
	}
}
