package oracle_test

import (
	"reflect"
	"sync/atomic"
	"testing"

	"mcf0/internal/bitvec"
	"mcf0/internal/counting"
	"mcf0/internal/formula"
	"mcf0/internal/gf2"
	"mcf0/internal/oracle"
	"mcf0/internal/stats"
)

// peakSource wraps a CNF fork family and records, after every query, how
// many solvers of the family are alive.
type peakSource struct {
	*oracle.CNFSource
	root *oracle.CNFSource
	peak *atomic.Int64
}

func (p peakSource) Fork() oracle.Source {
	return peakSource{p.CNFSource.Fork().(*oracle.CNFSource), p.root, p.peak}
}

func (p peakSource) Enumerate(cons *gf2.System, known []bitvec.BitVec, limit int, visit func(bitvec.BitVec) bool) int {
	n := p.CNFSource.Enumerate(cons, known, limit, visit)
	live := int64(oracle.LiveSolvers(p.root))
	for old := p.peak.Load(); live > old && !p.peak.CompareAndSwap(old, live); old = p.peak.Load() {
	}
	return n
}

// TestLiveSolversBoundedByWorkers: the counters fork per trial and release
// each fork's solver when its trial ends, so at most one solver per worker
// is alive at any time and none is left once the count returns. The
// aggregated solver counters still cover every trial, and the wrapper
// changes no result.
func TestLiveSolversBoundedByWorkers(t *testing.T) {
	cnf, _ := formula.PlantedKCNF(12, 18, 3, stats.NewRNG(0x11fe))
	runs := map[string]func(oracle.Source, counting.Options) counting.Result{
		"ApproxMC": func(s oracle.Source, o counting.Options) counting.Result {
			return counting.ApproxMC(s, o)
		},
		"ApproxMC/binary": func(s oracle.Source, o counting.Options) counting.Result {
			return counting.ApproxMC(s, o, counting.Variant{BinarySearch: true})
		},
		"Min/Oracle": counting.ApproxModelCountMinOracle,
	}
	for name, run := range runs {
		for _, workers := range []int{1, 2, 4} {
			opts := counting.Options{Thresh: 12, Iterations: 9, RNG: stats.NewRNG(7), Parallelism: workers}
			root := oracle.NewCNFSource(cnf)
			src := peakSource{root, root, new(atomic.Int64)}
			got := run(src, opts)
			opts.RNG = stats.NewRNG(7)
			want := run(oracle.NewCNFSource(cnf), opts)
			if peak := src.peak.Load(); peak < 1 || peak > int64(workers) {
				t.Errorf("%s workers=%d: %d solvers alive at once", name, workers, peak)
			}
			if live := oracle.LiveSolvers(root); live != 0 {
				t.Errorf("%s workers=%d: %d solvers alive after the count", name, workers, live)
			}
			if st := root.SolverStats(); st.Propagations == 0 {
				t.Errorf("%s workers=%d: aggregated solver stats empty: %+v", name, workers, st)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s workers=%d: wrapped %+v, plain %+v", name, workers, got, want)
			}
		}
	}
}
