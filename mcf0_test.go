package mcf0

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
)

func fastCfg(seed uint64) Config {
	return Config{Epsilon: 0.8, Delta: 0.2, Thresh: 24, Iterations: 9, Seed: seed}
}

const smallDNF = `p dnf 10 3
1 2 0
-3 4 5 0
6 -7 8 0
`

const smallCNF = `p cnf 8 4
1 2 3 0
-1 4 0
-2 -5 6 0
7 8 0
`

func TestCountDNFAllAlgorithms(t *testing.T) {
	truth, err := ExactCountDNFTerms(10, [][]int{{1, 2}, {-3, 4, 5}, {6, -7, 8}})
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []Algorithm{AlgorithmBucketing, AlgorithmMinimum, AlgorithmEstimation, AlgorithmKarpLuby} {
		ok := 0
		const trials = 8
		for s := 0; s < trials; s++ {
			res, err := CountDNF(strings.NewReader(smallDNF), alg, fastCfg(uint64(10+s)))
			if err != nil {
				t.Fatalf("%s: %v", alg, err)
			}
			if WithinFactor(res.Estimate, float64(truth), 0.8) {
				ok++
			}
		}
		if ok < trials/2 {
			t.Errorf("%s: within band only %d/%d (truth %d)", alg, ok, trials, truth)
		}
	}
}

func TestCountCNFBucketingAndMinimum(t *testing.T) {
	for _, alg := range []Algorithm{AlgorithmBucketing, AlgorithmMinimum} {
		res, err := CountCNF(strings.NewReader(smallCNF), alg, fastCfg(3))
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if res.Estimate <= 0 {
			t.Errorf("%s: non-positive estimate %g", alg, res.Estimate)
		}
		if res.OracleQueries == 0 {
			t.Errorf("%s: oracle queries not metered", alg)
		}
	}
	if _, err := CountCNF(strings.NewReader(smallCNF), AlgorithmKarpLuby, fastCfg(1)); err == nil {
		t.Error("KarpLuby accepted a CNF")
	}
}

func TestCountClausesValidation(t *testing.T) {
	if _, err := CountCNFClauses(3, [][]int{{4}}, AlgorithmBucketing, fastCfg(1)); err == nil {
		t.Error("out-of-range literal accepted")
	}
	if _, err := CountDNFTerms(3, [][]int{{0}}, AlgorithmMinimum, fastCfg(1)); err == nil {
		t.Error("zero literal accepted")
	}
}

func TestF0Sketches(t *testing.T) {
	for _, alg := range []Algorithm{AlgorithmBucketing, AlgorithmMinimum} {
		f, err := NewF0(20, alg, fastCfg(5))
		if err != nil {
			t.Fatal(err)
		}
		for i := uint64(0); i < 500; i++ {
			f.Add(i % 100) // 100 distinct
		}
		if !WithinFactor(f.Estimate(), 100, 0.8) {
			t.Errorf("%s: estimate %g for F0=100", alg, f.Estimate())
		}
		if f.SketchWords() == 0 {
			t.Errorf("%s: sketch reports zero size", alg)
		}
	}
	if _, err := NewF0(70, AlgorithmBucketing, fastCfg(1)); err == nil {
		t.Error("70-bit universe accepted")
	}
}

func TestRangeF0(t *testing.T) {
	r, err := NewRangeF0([]int{8, 8}, fastCfg(7))
	if err != nil {
		t.Fatal(err)
	}
	// Two disjoint 2×2 boxes: 8 tuples, below Thresh, so the count is
	// exact.
	if err := r.AddRange([]uint64{0, 0}, []uint64{1, 1}); err != nil {
		t.Fatal(err)
	}
	if err := r.AddRange([]uint64{100, 100}, []uint64{101, 101}); err != nil {
		t.Fatal(err)
	}
	if got := r.Estimate(); got != 8 {
		t.Errorf("range union = %g, want exactly 8 (below Thresh)", got)
	}
	if err := r.AddRange([]uint64{0}, []uint64{1}); err == nil {
		t.Error("dimension mismatch accepted")
	}
}

func TestProgressionF0(t *testing.T) {
	p, err := NewProgressionF0([]int{8}, fastCfg(9))
	if err != nil {
		t.Fatal(err)
	}
	// 0,4,8,...,20: 6 elements.
	if err := p.AddProgression([]uint64{0}, []uint64{20}, []int{2}); err != nil {
		t.Fatal(err)
	}
	if got := p.Estimate(); got != 6 {
		t.Errorf("progression count = %g, want 6", got)
	}
}

func TestDNFSetF0(t *testing.T) {
	d, _ := NewDNFSetF0(10, fastCfg(11))
	if err := d.AddDNF([][]int{{1, 2, 3, 4, 5, 6, 7}}); err != nil { // 8 solutions
		t.Fatal(err)
	}
	d.AddElementBatch([]uint64{0}) // all-false assignment, not in the term above
	if got := d.Estimate(); got != 9 {
		t.Errorf("DNF set union = %g, want 9", got)
	}
}

// TestDNFSetF0ElementBatch checks AddElementBatch against F0.AddBatch's
// contract: an element outside the n-bit universe rejects the whole
// batch with a panic, and elements of a universe wider than 64 bits are
// the assignments AddDNF spells with the same literals.
func TestDNFSetF0ElementBatch(t *testing.T) {
	d, _ := NewDNFSetF0(4, fastCfg(15))
	func() {
		defer func() {
			if recover() == nil {
				t.Error("element 1024 accepted by a 4-bit sketch")
			}
		}()
		d.AddElementBatch([]uint64{3, 1024})
	}()
	if got := d.Estimate(); got != 0 {
		t.Errorf("rejected batch left estimate %g, want 0", got)
	}
	d.AddElementBatch([]uint64{5})
	e, _ := NewDNFSetF0(4, fastCfg(15))
	if err := e.AddDNF([][]int{{-1, 2, -3, 4}}); err != nil { // 0101 = 5
		t.Fatal(err)
	}
	if a, b := mustMarshal(t, d), mustMarshal(t, e); string(a) != string(b) {
		t.Error("element 5 and the term -1 2 -3 4 leave different sketches")
	}

	const n = 70
	wide, _ := NewDNFSetF0(n, fastCfg(16))
	wide.AddElementBatch([]uint64{0, 1, 1 << 63, 1})
	if got := wide.Estimate(); got != 3 {
		t.Errorf("70-bit element union = %g, want 3", got)
	}
	lits := func(x uint64) []int { // x as a full 70-variable cube
		term := make([]int, n)
		for i := range term {
			term[i] = -(i + 1)
			if j := n - 1 - i; j < 64 && x>>uint(j)&1 != 0 {
				term[i] = i + 1
			}
		}
		return term
	}
	ref, _ := NewDNFSetF0(n, fastCfg(16))
	for _, x := range []uint64{0, 1, 1 << 63} {
		if err := ref.AddDNF([][]int{lits(x)}); err != nil {
			t.Fatal(err)
		}
	}
	if a, b := mustMarshal(t, wide), mustMarshal(t, ref); string(a) != string(b) {
		t.Error("70-bit elements and their cubes leave different sketches")
	}
}

// TestSetStreamConstructorBounds checks that the set-stream constructors
// refuse, without building anything, every shape whose snapshot the
// decoder would refuse, and accept the widest dimension count it takes.
func TestSetStreamConstructorBounds(t *testing.T) {
	cfg := Config{Thresh: 2, Iterations: 1, Seed: 17}
	ones := func(d int) []int {
		w := make([]int, d)
		for i := range w {
			w[i] = 1
		}
		return w
	}
	for name, build := range map[string]func() error{
		"range/no dims":          func() error { _, err := NewRangeF0(nil, cfg); return err },
		"range/1025 dims":        func() error { _, err := NewRangeF0(ones(1025), cfg); return err },
		"range/1100 dims":        func() error { _, err := NewRangeF0(ones(1100), cfg); return err },
		"range/64-bit dim":       func() error { _, err := NewRangeF0([]int{64}, cfg); return err },
		"progression/no dims":    func() error { _, err := NewProgressionF0(nil, cfg); return err },
		"progression/1025 dims":  func() error { _, err := NewProgressionF0(ones(1025), cfg); return err },
		"dnf/n=0":                func() error { _, err := NewDNFSetF0(0, cfg); return err },
		"dnf/n=65537":            func() error { _, err := NewDNFSetF0(1<<16+1, cfg); return err },
		"dnf/n=70000":            func() error { _, err := NewDNFSetF0(70000, cfg); return err },
		"dnf/slab over bound":    func() error { _, err := NewDNFSetF0(22, Config{Thresh: 1 << 12, Iterations: 1 << 12}); return err },
		"affine/n=65":            func() error { _, err := NewAffineF0(65, cfg); return err },
		"affine/copies 2^16+1":   func() error { _, err := NewAffineF0(8, Config{Iterations: 1<<16 + 1}); return err },
		"affine/thresh 2^24+1":   func() error { _, err := NewAffineF0(8, Config{Thresh: 1<<24 + 1}); return err },
		"progression/64-bit dim": func() error { _, err := NewProgressionF0([]int{64}, cfg); return err },
	} {
		if build() == nil {
			t.Errorf("%s: constructor accepted a shape the decoder refuses", name)
		}
	}

	r, err := NewRangeF0(ones(1024), cfg)
	if err != nil {
		t.Fatalf("1024 one-bit dimensions: %v", err)
	}
	if _, err := DecodeRangeF0(mustMarshal(t, r), 1); err != nil {
		t.Fatalf("1024-dimension snapshot refused: %v", err)
	}
}

// TestF0ConstructorBounds checks that NewF0 refuses, before allocating,
// every shape DecodeF0 refuses, per kind at its own largest block.
func TestF0ConstructorBounds(t *testing.T) {
	for _, c := range []struct {
		name string
		n    int
		alg  Algorithm
		cfg  Config
	}{
		// 16·(2^20+1) 32-bit cell rows: one row past kmv.MaxSlabWords.
		{"bucketing/rows over bound", 32, AlgorithmBucketing, Config{Thresh: 1 << 20, Iterations: 16}},
		// 16·2^20 192-bit minima: three words a row.
		{"minimum/slab over bound", 64, AlgorithmMinimum, Config{Thresh: 1 << 20, Iterations: 16}},
		// A 17×2^20 hash grid.
		{"estimation/grid over bound", 8, AlgorithmEstimation, Config{Thresh: 1 << 20, Iterations: 17}},
		{"bucketing/thresh 2^24+1", 8, AlgorithmBucketing, Config{Thresh: 1<<24 + 1, Iterations: 1}},
		{"minimum/copies 2^16+1", 8, AlgorithmMinimum, Config{Thresh: 1, Iterations: 1<<16 + 1}},
	} {
		if _, err := NewF0(c.n, c.alg, c.cfg); err == nil {
			t.Errorf("%s: NewF0 accepted a shape the decoder refuses", c.name)
		}
	}
}

func TestAffineF0(t *testing.T) {
	a, err := NewAffineF0(10, fastCfg(13))
	if err != nil {
		t.Fatal(err)
	}
	// x0 = 1 and x1 = 0: 2^8 = 256 solutions.
	a.AddAffine([]uint64{0b01, 0b10}, 0b01)
	est := a.Estimate()
	if !WithinFactor(est, 256, 0.8) {
		t.Errorf("affine estimate %g for 256 solutions", est)
	}
}

func TestCountWeightedDNF(t *testing.T) {
	// φ = x1 with ρ(x1) = 1/2, ρ(x2) = 1/2: W = 0.5.
	got, err := CountWeightedDNF(2, [][]int{{1}}, []uint64{2, 2}, []int{2, 2}, fastCfg(15))
	if err != nil {
		t.Fatal(err)
	}
	if !WithinFactor(got, 0.5, 0.8) {
		t.Errorf("weighted count %g, want ≈0.5", got)
	}
	if _, err := CountWeightedDNF(2, [][]int{{1}}, []uint64{0, 1}, []int{2, 2}, fastCfg(1)); err == nil {
		t.Error("invalid weights accepted")
	}
}

func TestDistributedCountDNF(t *testing.T) {
	terms := [][]int{{1, 2}, {-3, 4}, {5, 6}, {-1, -2, 7}}
	truth, err := ExactCountDNFTerms(12, terms)
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []Algorithm{AlgorithmBucketing, AlgorithmMinimum, AlgorithmEstimation} {
		res, err := DistributedCountDNF(12, terms, 3, alg, fastCfg(17))
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if res.CommBits == 0 || res.CommBits != res.CoordToSites+res.SitesToCoord {
			t.Errorf("%s: inconsistent communication accounting", alg)
		}
		if !WithinFactor(res.Estimate, float64(truth), 1.5) {
			t.Errorf("%s: distributed estimate %g far from %d", alg, res.Estimate, truth)
		}
	}
	// An unsatisfiable formula estimates 0, and its bits still split into
	// the two directions (Estimation pays the rough round alone).
	unsat := [][]int{{1, -1}, {2, -2}}
	for _, alg := range []Algorithm{AlgorithmBucketing, AlgorithmMinimum, AlgorithmEstimation} {
		res, err := DistributedCountDNF(6, unsat, 2, alg, Config{Thresh: 24, Seed: 3})
		if err != nil || res.Estimate != 0 || res.CommBits != res.CoordToSites+res.SitesToCoord {
			t.Errorf("%s unsat: %+v, %v", alg, res, err)
		}
		if alg == AlgorithmEstimation && (res.CoordToSites == 0 || res.SitesToCoord == 0) {
			t.Errorf("estimation unsat: unsplit communication %+v", res)
		}
	}
	if _, err := DistributedCountDNF(12, terms, 0, AlgorithmMinimum, fastCfg(1)); err == nil {
		t.Error("zero sites accepted")
	}
	// Zero Iterations resolves the rough round's trial count too.
	if res, err := DistributedCountDNF(12, terms, 3, AlgorithmEstimation, Config{Thresh: 24, Seed: 17}); err != nil ||
		!WithinFactor(res.Estimate, float64(truth), 1.5) {
		t.Errorf("estimation at zero iterations: %+v, %v", res, err)
	}
}

func TestSampling(t *testing.T) {
	terms := [][]int{{1, 2}, {-3, 4}}
	samples, err := SampleDNFTerms(10, terms, 15, fastCfg(19))
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 15 {
		t.Fatalf("got %d samples", len(samples))
	}
	for _, s := range samples {
		if len(s) != 10 {
			t.Fatalf("sample %q has wrong width", s)
		}
		// Satisfies (x1∧x2) ∨ (¬x3∧x4)?
		sat := (s[0] == '1' && s[1] == '1') || (s[2] == '0' && s[3] == '1')
		if !sat {
			t.Fatalf("sample %q violates the formula", s)
		}
	}
	// CNF path + unsat path.
	cs, err := SampleCNFClauses(6, [][]int{{1}, {-1}}, 5, fastCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	if cs != nil {
		t.Fatal("unsat CNF produced samples")
	}
}

func TestDeterminism(t *testing.T) {
	a, _ := CountDNF(strings.NewReader(smallDNF), AlgorithmMinimum, fastCfg(42))
	b, _ := CountDNF(strings.NewReader(smallDNF), AlgorithmMinimum, fastCfg(42))
	if a.Estimate != b.Estimate {
		t.Error("equal seeds produced different estimates")
	}
}

// TestEstimationZeroIsPositive checks that an Estimation zero is +0 on
// every public path — an empty F0 sketch and its JSON form, unsatisfiable
// CNF and DNF counts — so nothing prints or serves "-0".
func TestEstimationZeroIsPositive(t *testing.T) {
	f, err := NewF0(16, AlgorithmEstimation, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ests := map[string]float64{"empty F0": f.Estimate()}
	if b, err := json.Marshal(f.Estimate()); err != nil || string(b) != "0" {
		t.Errorf("empty F0 estimate marshals to %s (%v), want 0", b, err)
	}
	cnf, err := CountCNFClauses(6, [][]int{{1}, {-1}}, AlgorithmEstimation, fastCfg(3))
	if err != nil {
		t.Fatal(err)
	}
	ests["unsat CNF count"] = cnf.Estimate
	dnf, err := CountDNFTerms(6, [][]int{{1, -1}, {2, -2}}, AlgorithmEstimation, fastCfg(3))
	if err != nil {
		t.Fatal(err)
	}
	ests["unsat DNF count"] = dnf.Estimate
	for name, got := range ests {
		if got != 0 || math.Signbit(got) {
			t.Errorf("%s: estimate %g (sign bit %v), want +0", name, got, math.Signbit(got))
		}
	}
}

// Algorithm 7 over a CNF sweeps Sol(φ) once into integers and builds
// no vector per assignment or per solution: its polynomial draws, like
// every hash.Func, evaluate the integers. One vector per solution made
// this count about 6,950 allocations, 2,840 without them.
func TestEstimationCountAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("about 12,300 sweeps of the solution list are slow under the race detector")
	}
	clauses := [][]int{{1, 2, 3}, {-1, 4, 5}, {2, -6, 7}, {-3, 8, -9}, {10, 11, -12}}
	allocs := testing.AllocsPerRun(1, func() {
		if _, err := CountCNFClauses(12, clauses, AlgorithmEstimation, Config{Seed: 2, Parallelism: 1}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 4000 {
		t.Errorf("estimation count of a 12-variable CNF: %.0f allocations, want ≤ 4,000", allocs)
	}
}

// A formula over zero variables is refused with an error by every count,
// distributed-count and sample entry point, for every algorithm, instead
// of panicking inside the hash families.
func TestZeroVariablesRefused(t *testing.T) {
	for _, alg := range []Algorithm{AlgorithmBucketing, AlgorithmMinimum, AlgorithmEstimation, AlgorithmKarpLuby} {
		for name, count := range map[string]func() (CountResult, error){
			"CountCNF":        func() (CountResult, error) { return CountCNF(strings.NewReader("p cnf 0 0\n"), alg, fastCfg(1)) },
			"CountDNF":        func() (CountResult, error) { return CountDNF(strings.NewReader("p dnf 0 0\n"), alg, fastCfg(1)) },
			"CountCNFClauses": func() (CountResult, error) { return CountCNFClauses(0, nil, alg, fastCfg(1)) },
			"CountDNFTerms":   func() (CountResult, error) { return CountDNFTerms(0, [][]int{{}}, alg, fastCfg(1)) },
		} {
			if _, err := count(); err == nil {
				t.Errorf("%s %s: n = 0 accepted", name, alg)
			}
		}
	}
	if _, err := DistributedCountDNF(0, [][]int{{}}, 2, AlgorithmBucketing, fastCfg(1)); err == nil {
		t.Error("DistributedCountDNF: n = 0 accepted")
	}
	if _, err := SampleDNFTerms(0, [][]int{{}}, 1, fastCfg(1)); err == nil {
		t.Error("SampleDNFTerms: n = 0 accepted")
	}
	if _, err := SampleCNFClauses(0, nil, 1, fastCfg(1)); err == nil {
		t.Error("SampleCNFClauses: n = 0 accepted")
	}
}

// The Minimum counter estimates a count far above Thresh·2^53: the
// k-th smallest hash then has more than 53 leading zeros, and reading
// only its first 53 bits once gave 0 and the estimate Thresh (150 here,
// for a truth of 2^98).
func TestMinimumCountPast2To53(t *testing.T) {
	res, err := CountDNFTerms(100, [][]int{{1, 2}}, AlgorithmMinimum, Config{Seed: 1, Iterations: 9})
	if err != nil {
		t.Fatal(err)
	}
	if truth := math.Ldexp(1, 98); !WithinFactor(res.Estimate, truth, 0.8) {
		t.Fatalf("estimate %g, want within the ε = 0.8 band of 2^98 = %g", res.Estimate, truth)
	}
}
