package counting

import (
	"testing"

	"mcf0/internal/bitvec"
	"mcf0/internal/formula"
	"mcf0/internal/hash"
	"mcf0/internal/oracle"
	"mcf0/internal/stats"
)

func TestSampleReturnsSolutions(t *testing.T) {
	rng := stats.NewRNG(301)
	for trial := 0; trial < 10; trial++ {
		n := 8 + rng.Intn(4)
		d := formula.RandomDNF(n, 3, 4, rng)
		src := oracle.NewDNFSource(d)
		samples := Sample(src, 20, testOpts(uint64(trial)))
		if len(samples) != 20 {
			t.Fatalf("trial %d: got %d samples", trial, len(samples))
		}
		for _, x := range samples {
			if !d.Eval(x) {
				t.Fatalf("trial %d: sample %v is not a solution", trial, x)
			}
		}
	}
}

func TestSampleUnsat(t *testing.T) {
	c := formula.NewCNF(4)
	c.AddClause(formula.Clause{formula.Pos(0)})
	c.AddClause(formula.Clause{formula.Negl(0)})
	if got := Sample(oracle.NewCNFSource(c), 5, testOpts(1)); got != nil {
		t.Fatalf("unsat formula produced %d samples", len(got))
	}
}

// TestSampleApproximatelyUniform draws many samples from a formula with a
// known small solution set and checks every solution is hit with frequency
// within a loose factor of uniform — the JVV-style guarantee, empirically.
func TestSampleApproximatelyUniform(t *testing.T) {
	// φ over 9 variables: x0..x4 fixed true → 16 solutions over x5..x8.
	c := formula.NewCNF(9)
	for v := 0; v < 5; v++ {
		c.AddClause(formula.Clause{formula.Pos(v)})
	}
	src := oracle.NewCNFSource(c)
	const perSolution = 40
	const total = 16 * perSolution
	opts := testOpts(7)
	counts := map[string]int{}
	for _, x := range Sample(src, total, opts) {
		if !c.Eval(x) {
			t.Fatal("non-solution sampled")
		}
		counts[x.Key()]++
	}
	if len(counts) != 16 {
		t.Fatalf("sampler hit %d of 16 solutions", len(counts))
	}
	for k, got := range counts {
		if got < perSolution/4 || got > perSolution*4 {
			t.Errorf("solution %x sampled %d times (expected ≈%d, factor-4 band)", k, got, perSolution)
		}
	}
}

func TestSampleCNFWithXORStructure(t *testing.T) {
	// Samples must respect XOR-rich structure: φ = (x0 ∨ x1) with the SAT
	// backend; every sample satisfies it.
	c := formula.NewCNF(10)
	c.AddClause(formula.Clause{formula.Pos(0), formula.Pos(1)})
	src := oracle.NewCNFSource(c)
	for _, x := range Sample(src, 10, testOpts(3)) {
		if !c.Eval(x) {
			t.Fatal("sample violates formula")
		}
	}
}

func TestSparseFamilyShape(t *testing.T) {
	rng := stats.NewRNG(303)
	fam := hash.NewSparse(64, 64, 0.1)
	if fam.Name() != "sparse" {
		t.Fatal("sparse family metadata wrong")
	}
	totalOnes := 0
	const draws = 20
	for i := 0; i < draws; i++ {
		h := fam.Draw(rng.Uint64).(*hash.Linear)
		for r := 0; r < h.A().Rows(); r++ {
			if h.A().Row(r).IsZero() {
				t.Fatal("sparse draw produced an empty row")
			}
			totalOnes += h.A().Row(r).PopCount()
		}
	}
	mean := float64(totalOnes) / float64(draws*64)
	// Expected ≈ 6.4 ones per row at density 0.1 over 64 columns.
	if mean < 3 || mean > 12 {
		t.Fatalf("sparse row weight mean %.1f far from 6.4", mean)
	}
}

// TestSparseApproxMCStillAccurate: the §6 research question, empirically —
// sparse XORs keep ApproxMC in-band on small instances while making rows
// much lighter.
func TestSparseApproxMCStillAccurate(t *testing.T) {
	rng := stats.NewRNG(307)
	d := formula.RandomDNF(14, 6, 4, rng)
	src := oracle.NewDNFSource(d)
	var truth float64
	{
		// ground truth via dense ApproxMC's exact brute force companion
		cnt := 0
		for v := uint64(0); v < 1<<14; v++ {
			if d.Eval(bitvec.FromUint64(v, 14)) {
				cnt++
			}
		}
		truth = float64(cnt)
	}
	ok := 0
	const trials = 10
	for s := 0; s < trials; s++ {
		res := ApproxMC(src, testOpts(uint64(400+s)), Variant{Family: hash.NewSparse(14, 14, 0.25)})
		if stats.WithinFactor(res.Estimate, truth, 0.8) {
			ok++
		}
	}
	if ok < trials/2 {
		t.Errorf("sparse-XOR ApproxMC in-band only %d/%d (truth %g)", ok, trials, truth)
	}
}
