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

// protocolDigest is SHA-256 over a protocol run's PerIteration bits,
// Estimate bits and both Comm counters.
func protocolDigest(r Result) string {
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
	return hex.EncodeToString(h.Sum(nil))
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
			got[c.name] = protocolDigest(Minimum(Split(c.d, c.k), o))
		}
		for name, digest := range got {
			if want := goldenMinimumDigests[name]; digest != want {
				t.Errorf("%s par=%d: digest %s, want %s", name, par, digest, want)
			}
		}
	}
}

// goldenBucketingDigests and goldenEstimationDigests pin protocolDigest
// of the distributed Bucketing and Estimation protocols, and
// goldenRoughRDigests SHA-256 over RoughR's r and both Comm counters. The
// values were captured before Estimation ran on the Section 3 counter, so
// a change to the site answers, the coordinator or the bit accounting
// fails here.
var goldenBucketingDigests = map[string]string{
	"small/k=1": "5af8cda5184e3b5948df3593448c44cf6d2eed271041ed710600f5762f83feed",
	"small/k=3": "3a6fce30642518e484adb792b14430530f3ae650b52a1787746320b6ecda201f",
	"mid/k=2":   "22fb37fa1f0c39dd531bd5e12b83ec67b03997e084a8f2fe6e3bd6fe068ede60",
	"mid/k=4":   "fee88dd2115a7f1fddcd9c1c43f764008a8a9af12e1330aa812db38c8dc7838a",
	"unsat/k=2": "edb7cb31bd974b8cf0292933342d6c7b9e8a0b48cd02e6c32ac624b7bf1c0385",
}

var goldenEstimationDigests = map[string]string{
	"small/k=1": "822ca6379912370c87a6d3036ddf1f54141f7f01a3aa89b4c4aab652e044de06",
	"small/k=3": "e2c503b6a8945b0a57ee593d8b81962c169b7c41f30bbff137e4444c312247b0",
	"mid/k=2":   "eef712fe5bdee4cef4eb0982d52a2eacf046f24513645c0420b49fa723f0ee76",
	"mid/k=4":   "a72f8c74f0c2eb08af34b81ed8b3bbb82910139ce684753d2434d313f684d339",
}

var goldenRoughRDigests = map[string]string{
	"small/k=1": "3386fbbb4322eac243c9219553bae1f3b537f2426a558d3f66f17a7663530447",
	"small/k=3": "c137ae621e959be0b9bb456e353f11936967f62360cbfc3cdc173109b721c296",
	"mid/k=2":   "63160e52daac4d75e8180fd8d2532de180cec711e1218bb2c56f10175f48ff0a",
	"mid/k=4":   "f71a89b796a0ec23982a3319bacb7a423e553cca9bd40105b29b84790c3dad07",
	"unsat/k=2": "8ba16c8d2e1a8be0d186fbd8219b09a83c64c1da833f51a25d3e736f56918d2b",
}

// TestProtocolGoldenDeterminism checks the pinned Bucketing, Estimation
// and RoughR digests for several site counts at parallelism 1 and 2. An
// unsatisfiable formula covers RoughR's early return.
func TestProtocolGoldenDeterminism(t *testing.T) {
	rng := stats.NewRNG(0xd158)
	small := formula.RandomDNF(10, 6, 4, rng)
	mid := formula.RandomDNF(12, 8, 5, rng)
	cases := []struct {
		name string
		d    *formula.DNF
		k    int
	}{{"small/k=1", small, 1}, {"small/k=3", small, 3}, {"mid/k=2", mid, 2}, {"mid/k=4", mid, 4}, {"unsat/k=2", formula.NewDNF(10), 2}}
	for _, par := range []int{1, 2} {
		opts := func() Options {
			return Options{Thresh: 12, Iterations: 5, RNG: stats.NewRNG(0x3a2), Parallelism: par}
		}
		check := func(pinned map[string]string, name, kind, got string) {
			t.Helper()
			if want := pinned[name]; got != want {
				t.Errorf("%s %s par=%d: digest %s, want %s", kind, name, par, got, want)
			}
		}
		for _, c := range cases {
			parts := Split(c.d, c.k)
			check(goldenBucketingDigests, c.name, "Bucketing", protocolDigest(Bucketing(parts, opts())))
			r, comm := RoughR(parts, 5, opts())
			h := sha256.New()
			var w [8]byte
			for _, v := range []int64{int64(r), comm.CoordToSites, comm.SitesToCoord} {
				binary.LittleEndian.PutUint64(w[:], uint64(v))
				h.Write(w[:])
			}
			check(goldenRoughRDigests, c.name, "RoughR", hex.EncodeToString(h.Sum(nil)))
			if r >= 0 {
				check(goldenEstimationDigests, c.name, "Estimation", protocolDigest(Estimation(parts, r, opts())))
			}
		}
	}
}
