package counting

import (
	"reflect"
	"runtime"
	"testing"

	"mcf0/internal/exact"
	"mcf0/internal/formula"
	"mcf0/internal/oracle"
	"mcf0/internal/stats"
)

// Regression tests for oracle-level solver reuse: a CNFSource keeps one
// incremental CDCL solver across queries (and across whole ApproxMC runs),
// and its results must be indistinguishable from a fresh source per run, on
// every E1 configuration (linear and binary prefix search, serial and
// parallel trials).

func e1Options(seed uint64, par int) Options {
	return Options{Epsilon: 0.8, Delta: 0.2, Thresh: 24, Iterations: 7,
		RNG: stats.NewRNG(seed), Parallelism: par}
}

// TestApproxMCReusedSolverMatchesFresh runs ApproxMC on a CNF whose
// models fit the 2·Thresh solution pool (42 at Thresh 24: every trial is
// answered from the pool) and on one whose models do not (1,172: every
// trial asks the oracle), at parallelism 1, 2 and GOMAXPROCS, on a source
// reused across runs and on a fresh one. Estimate, PerIteration and
// OracleQueries must equal the serial fresh run's in every case.
func TestApproxMCReusedSolverMatchesFresh(t *testing.T) {
	complete, _ := formula.PlantedKCNF(12, 40, 3, stats.NewRNG(3))
	incomplete, _ := formula.PlantedKCNF(14, 21, 3, stats.NewRNG(811))
	pool := 2 * thresh(e1Options(0, 1))
	for _, c := range []struct {
		name     string
		cnf      *formula.CNF
		complete bool
	}{{"complete", complete, true}, {"incomplete", incomplete, false}} {
		if models := exact.CountCNF(c.cnf); (models < uint64(pool)) != c.complete {
			t.Fatalf("%s: %d models against a pool bound of %d", c.name, models, pool)
		}
		for _, binary := range []bool{false, true} {
			for _, par := range []int{1, 2, runtime.GOMAXPROCS(0)} {
				reused := oracle.NewCNFSource(c.cnf)
				for seed := uint64(0); seed < 3; seed++ {
					v := Variant{BinarySearch: binary}
					want := ApproxMC(oracle.NewCNFSource(c.cnf), e1Options(seed, 1), v)
					fresh := ApproxMC(oracle.NewCNFSource(c.cnf), e1Options(seed, par), v)
					got := ApproxMC(reused, e1Options(seed, par), v)
					for side, r := range map[string]Result{"fresh": fresh, "reused": got} {
						if !reflect.DeepEqual(r, want) {
							t.Fatalf("%s bin=%v par=%d seed=%d: %s source %+v, serial fresh %+v",
								c.name, binary, par, seed, side, r, want)
						}
					}
				}
			}
		}
	}
}

// TestApproxMCParallelismInvariantCNF: estimates and query totals for a
// fixed seed are identical at every parallelism level (forks per trial vs
// one shared serial solver).
func TestApproxMCParallelismInvariantCNF(t *testing.T) {
	rng := stats.NewRNG(821)
	cnf, _ := formula.PlantedKCNF(12, 18, 3, rng)
	for _, binary := range []bool{false, true} {
		v := Variant{BinarySearch: binary}
		base := ApproxMC(oracle.NewCNFSource(cnf), e1Options(5, 1), v)
		for _, par := range []int{2, 4, 8} {
			got := ApproxMC(oracle.NewCNFSource(cnf), e1Options(5, par), v)
			if got.Estimate != base.Estimate || !reflect.DeepEqual(got.PerIteration, base.PerIteration) {
				t.Fatalf("bin=%v par=%d: estimate %g/%v, serial %g/%v",
					binary, par, got.Estimate, got.PerIteration, base.Estimate, base.PerIteration)
			}
			if got.OracleQueries != base.OracleQueries {
				t.Fatalf("bin=%v par=%d: queries %d, serial %d", binary, par, got.OracleQueries, base.OracleQueries)
			}
		}
	}
}

// TestSolverStatsAggregate: the aggregated CDCL counters cover work done by
// forked trial solvers and survive internal rebuilds.
func TestSolverStatsAggregate(t *testing.T) {
	rng := stats.NewRNG(823)
	cnf, _ := formula.PlantedKCNF(12, 18, 3, rng)
	src := oracle.NewCNFSource(cnf)
	ApproxMC(src, e1Options(1, 4))
	st := src.SolverStats()
	if st.Decisions == 0 && st.Propagations == 0 {
		t.Fatalf("aggregated solver stats empty: %+v", st)
	}
}
