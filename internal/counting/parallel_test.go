package counting

import (
	"reflect"
	"testing"

	"mcf0/internal/formula"
	"mcf0/internal/oracle"
	"mcf0/internal/stats"
)

// Determinism regression: for a fixed seed, running the median trials on a
// worker pool (Parallelism > 1) must reproduce the serial run exactly —
// estimate, per-iteration values, and oracle-query totals.

func parOpts(par int) Options {
	return Options{Epsilon: 0.8, Delta: 0.2, Thresh: 16, Iterations: 9,
		RNG: stats.NewRNG(0xdecaf), Parallelism: par}
}

func checkDeterministic(t *testing.T, name string, run func(par int) Result) {
	t.Helper()
	serial := run(1)
	for _, par := range []int{2, 4, 8} {
		got := run(par)
		if got.Estimate != serial.Estimate {
			t.Fatalf("%s: parallelism %d estimate %v, serial %v",
				name, par, got.Estimate, serial.Estimate)
		}
		if !reflect.DeepEqual(got.PerIteration, serial.PerIteration) {
			t.Fatalf("%s: parallelism %d per-iteration %v, serial %v",
				name, par, got.PerIteration, serial.PerIteration)
		}
		if got.OracleQueries != serial.OracleQueries {
			t.Fatalf("%s: parallelism %d oracle queries %d, serial %d",
				name, par, got.OracleQueries, serial.OracleQueries)
		}
		if got.Iterations != serial.Iterations {
			t.Fatalf("%s: parallelism %d iterations %d, serial %d",
				name, par, got.Iterations, serial.Iterations)
		}
	}
}

func TestApproxMCParallelDeterminism(t *testing.T) {
	rng := stats.NewRNG(31)
	d := formula.RandomDNF(12, 6, 4, rng)
	cnf, _ := formula.PlantedKCNF(10, 15, 3, rng)
	checkDeterministic(t, "ApproxMC/DNF", func(par int) Result {
		return ApproxMC(oracle.NewDNFSource(d), parOpts(par))
	})
	checkDeterministic(t, "ApproxMC/CNF", func(par int) Result {
		return ApproxMC(oracle.NewCNFSource(cnf), parOpts(par))
	})
	checkDeterministic(t, "ApproxMC/CNF/binary", func(par int) Result {
		return ApproxMC(oracle.NewCNFSource(cnf), parOpts(par), Variant{BinarySearch: true})
	})
}

func TestApproxModelCountMinParallelDeterminism(t *testing.T) {
	rng := stats.NewRNG(32)
	d := formula.RandomDNF(12, 6, 4, rng)
	cnf, _ := formula.PlantedKCNF(8, 12, 3, rng)
	checkDeterministic(t, "Min/DNF", func(par int) Result {
		return ApproxModelCountMinDNF(d, parOpts(par))
	})
	checkDeterministic(t, "Min/Oracle", func(par int) Result {
		o := parOpts(par)
		o.Thresh = 8
		o.Iterations = 5
		return ApproxModelCountMinOracle(oracle.NewCNFSource(cnf), o)
	})
}

func TestApproxModelCountEstParallelDeterminism(t *testing.T) {
	rng := stats.NewRNG(33)
	d := formula.RandomDNF(10, 4, 3, rng)
	tzFor := func() *oracle.Exhaustive { return oracle.NewExhaustive(10, d.Eval) }
	src := oracle.NewDNFSource(d)
	r, _ := RoughCount(oracle.LinearTester{Source: src}, 10, 5, stats.NewRNG(7))
	if r < 0 {
		t.Fatal("formula unexpectedly unsatisfiable")
	}
	checkDeterministic(t, "Est", func(par int) Result {
		o := parOpts(par)
		o.Thresh = 8
		o.Iterations = 5
		return ApproxModelCountEst(tzFor(), 10, r, o)
	})
}

func TestKarpLubyParallelDeterminism(t *testing.T) {
	rng := stats.NewRNG(34)
	d := formula.RandomDNF(12, 6, 4, rng)
	checkDeterministic(t, "KarpLuby", func(par int) Result {
		return KarpLuby(d, parOpts(par))
	})
}
