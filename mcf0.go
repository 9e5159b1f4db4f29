// Package mcf0 is a Go library unifying approximate model counting and F0
// (distinct elements) estimation, implementing "Model Counting meets F0
// Estimation" (Pavan, Vinodchandran, Bhattacharyya, Meel; PODS 2021).
//
// The package offers three hashing-based (ε, δ)-approximate model counters
// obtained by transforming classic streaming sketches —
//
//   - AlgorithmBucketing:  ApproxMC (Algorithm 5), from the
//     Gibbons–Tirthapura bucket sketch;
//   - AlgorithmMinimum:    ApproxModelCountMin (Algorithm 6), from the
//     k-minimum-values sketch; an FPRAS for DNF;
//   - AlgorithmEstimation: ApproxModelCountEst (Algorithm 7), from the
//     trailing-zero sketch;
//   - AlgorithmKarpLuby:   the classical Monte-Carlo #DNF baseline;
//
// the corresponding F0 sketches themselves (F0 type), F0 estimation over
// structured set streams — DNF sets, multidimensional ranges, arithmetic
// progressions, affine spaces (Section 5) — weighted DNF counting via the
// range-stream reduction, and distributed DNF counting protocols with
// exact communication metering (Section 4).
//
// Formulas enter either as DIMACS text (CountCNF / CountDNF) or as literal
// lists in the DIMACS convention: literal +v / −v is variable v (1-based)
// positive / negated.
//
// Every estimator is internally t ≈ 35·log₂(1/δ) independent trials or
// sketch copies; Config.Parallelism bounds the worker pool they fan out
// across, and the batch entry points (F0.AddBatch, DNFSetF0.AddDNFBatch,
// RangeF0.AddRangeBatch, …) amortise one pool dispatch over a whole chunk
// of stream items. Fixed-seed results are bit-identical at every
// parallelism level and under any batching of the same stream.
package mcf0

import (
	"errors"
	"fmt"
	"io"
	"math"

	"mcf0/internal/bitvec"
	"mcf0/internal/counting"
	"mcf0/internal/distributed"
	"mcf0/internal/exact"
	"mcf0/internal/formula"
	"mcf0/internal/gf2"
	"mcf0/internal/oracle"
	"mcf0/internal/params"
	"mcf0/internal/setstream"
	"mcf0/internal/stats"
	"mcf0/internal/streaming"
	"mcf0/internal/wire"
)

// Algorithm selects a counting or sketching strategy.
type Algorithm string

// The available algorithms.
const (
	AlgorithmBucketing  Algorithm = "bucketing"
	AlgorithmMinimum    Algorithm = "minimum"
	AlgorithmEstimation Algorithm = "estimation"
	AlgorithmKarpLuby   Algorithm = "karpluby"
)

// Config carries the (ε, δ) parameters shared by every algorithm. The zero
// value uses the paper's constants: ε = 0.8, δ = 0.2, Thresh = ⌈96/ε²⌉,
// Iterations = ⌈35·log₂(1/δ)⌉ (see Resolved).
type Config struct {
	// Epsilon is the multiplicative error tolerance.
	Epsilon float64
	// Delta is the failure probability.
	Delta float64
	// Thresh overrides the sketch width ⌈96/ε²⌉ (mainly for tests).
	Thresh int
	// Iterations overrides the copy or median-trial count ⌈35·log₂(1/δ)⌉.
	Iterations int
	// Seed fixes the random source; runs with equal seeds are identical.
	// The zero seed selects a library default (still deterministic).
	Seed uint64
	// BinarySearch enables the ApproxMC2 prefix search for
	// AlgorithmBucketing.
	BinarySearch bool
	// Parallelism bounds the worker pools of every layer: the independent
	// median trials of the counting and distributed algorithms, and the
	// t independent sketch copies of the F0 and set-stream estimators
	// (fanned out per batch — see F0.AddBatch and the set-stream batch
	// methods). NewConcurrentF0 forces it to 1: its replicas take their
	// concurrency from the writers' goroutines instead. 0 selects
	// GOMAXPROCS, 1 forces serial execution. All randomness is drawn
	// serially and keyed by trial/copy index, never by worker, so results
	// for a fixed Seed are bit-identical at every parallelism level.
	Parallelism int
}

// Resolved returns c with Epsilon, Delta, Thresh and Iterations set to
// the values every algorithm actually runs with (see params.Resolve):
// ε defaults to 0.8, δ to 0.2, Thresh to ⌈96/ε²⌉ and Iterations to
// max(1, ⌈35·log₂(1/δ)⌉).
func (c Config) Resolved() Config {
	p := c.options().Resolve(0) // options always sets the RNG
	c.Epsilon, c.Delta, c.Thresh, c.Iterations = p.Epsilon, p.Delta, p.Thresh, p.Iterations
	return c
}

// options converts c to the parameter set the counting, sketch,
// set-stream and protocol packages take; BinarySearch travels apart, as
// the counting.Variant of the two ApproxMC calls.
func (c Config) options() params.Options {
	return params.Options{
		Epsilon:     c.Epsilon,
		Delta:       c.Delta,
		Thresh:      c.Thresh,
		Iterations:  c.Iterations,
		RNG:         c.rng(),
		Parallelism: c.Parallelism,
	}
}

func (c Config) rng() *stats.RNG {
	seed := c.Seed
	if seed == 0 {
		seed = 0x6d6366302e676f
	}
	return stats.NewRNG(seed)
}

// CountResult reports an approximate model count.
type CountResult struct {
	// Estimate approximates |Sol(φ)| within factor (1+ε) with probability
	// ≥ 1−δ.
	Estimate float64
	// OracleQueries counts NP-oracle (SAT) calls, the paper's complexity
	// currency; zero for the polynomial-time DNF paths.
	OracleQueries int64
	// Solver aggregates the CDCL solver's work across every SAT-oracle
	// call (all trial forks and internal rebuilds included); zero for
	// pure-DNF paths. For AlgorithmEstimation over CNF it covers the
	// RoughCount preamble, the only stage that consults the SAT solver.
	// It explains where SAT-backed runs spend their time: cmd/approxmc -v
	// prints it.
	Solver SolverStats
}

// SolverStats mirrors the CDCL solver's work counters.
type SolverStats struct {
	Decisions    int64
	Propagations int64
	Conflicts    int64
	Learned      int64
	// Deleted counts learned clauses removed by database reduction.
	Deleted  int64
	Restarts int64
	// LearnedLits counts literals in first-UIP clauses before minimization;
	// MinimizedLits counts how many recursive self-subsumption pruned
	// (MinimizedLits/LearnedLits is the learned-clause shrink rate).
	LearnedLits   int64
	MinimizedLits int64
}

// solverStats snapshots a CNF source's aggregated solver counters.
func solverStats(src *oracle.CNFSource) SolverStats {
	st := src.SolverStats()
	return SolverStats{
		Decisions:     st.Decisions,
		Propagations:  st.Propagations,
		Conflicts:     st.Conflicts,
		Learned:       st.Learned,
		Deleted:       st.Deleted,
		Restarts:      st.Restarts,
		LearnedLits:   st.LearnedLits,
		MinimizedLits: st.MinimizedLits,
	}
}

// CountCNF approximately counts the models of a DIMACS CNF formula.
// AlgorithmEstimation requires n ≤ 24 (oracle.ExhaustiveMaxVars: its
// trailing-zero oracle falls back to enumeration); AlgorithmKarpLuby
// applies only to DNF.
func CountCNF(r io.Reader, alg Algorithm, cfg Config) (CountResult, error) {
	c, err := formula.ParseDIMACS(r)
	if err != nil {
		return CountResult{}, err
	}
	return countCNF(c, alg, cfg)
}

// CountCNFClauses counts models of the CNF given as DIMACS-style literal
// lists over n variables.
func CountCNFClauses(n int, clauses [][]int, alg Algorithm, cfg Config) (CountResult, error) {
	c, err := cnfFromClauses(n, clauses)
	if err != nil {
		return CountResult{}, err
	}
	return countCNF(c, alg, cfg)
}

func countCNF(c *formula.CNF, alg Algorithm, cfg Config) (CountResult, error) {
	if c.N < 1 {
		return CountResult{}, errNoVariables
	}
	src := oracle.NewCNFSource(c)
	opts := cfg.options()
	switch alg {
	case AlgorithmBucketing, "":
		res := counting.ApproxMC(src, opts, counting.Variant{BinarySearch: cfg.BinarySearch})
		return CountResult{Estimate: res.Estimate, OracleQueries: res.OracleQueries, Solver: solverStats(src)}, nil
	case AlgorithmMinimum:
		res := counting.ApproxModelCountMinOracle(src, opts)
		return CountResult{Estimate: res.Estimate, OracleQueries: res.OracleQueries, Solver: solverStats(src)}, nil
	case AlgorithmEstimation:
		res, err := countEstimation(src, c.Eval, cfg)
		if err == nil {
			res.Solver = solverStats(src)
		}
		return res, err
	default:
		return CountResult{}, fmt.Errorf("mcf0: algorithm %q not applicable to CNF", alg)
	}
}

// CountDNF approximately counts the models of a "p dnf" formula.
func CountDNF(r io.Reader, alg Algorithm, cfg Config) (CountResult, error) {
	d, err := formula.ParseDNF(r)
	if err != nil {
		return CountResult{}, err
	}
	return countDNF(d, alg, cfg)
}

// CountDNFTerms counts models of the DNF given as DIMACS-style literal
// lists over n variables.
func CountDNFTerms(n int, terms [][]int, alg Algorithm, cfg Config) (CountResult, error) {
	d, err := dnfFromTerms(n, terms)
	if err != nil {
		return CountResult{}, err
	}
	return countDNF(d, alg, cfg)
}

func countDNF(d *formula.DNF, alg Algorithm, cfg Config) (CountResult, error) {
	if d.N < 1 {
		return CountResult{}, errNoVariables
	}
	opts := cfg.options()
	switch alg {
	case AlgorithmBucketing, "":
		src := oracle.NewDNFSource(d)
		res := counting.ApproxMC(src, opts, counting.Variant{BinarySearch: cfg.BinarySearch})
		return CountResult{Estimate: res.Estimate}, nil
	case AlgorithmMinimum:
		res := counting.ApproxModelCountMinDNF(d, opts)
		return CountResult{Estimate: res.Estimate}, nil
	case AlgorithmEstimation:
		return countEstimation(oracle.NewDNFSource(d), d.Eval, cfg)
	case AlgorithmKarpLuby:
		res := counting.KarpLuby(d, opts)
		return CountResult{Estimate: res.Estimate}, nil
	default:
		return CountResult{}, fmt.Errorf("mcf0: unknown algorithm %q", alg)
	}
}

// ExactCountDNFTerms returns the exact model count by inclusion–exclusion;
// practical only for ≤ 24 terms. Ground truth for small experiments.
func ExactCountDNFTerms(n int, terms [][]int) (uint64, error) {
	d, err := dnfFromTerms(n, terms)
	if err != nil {
		return 0, err
	}
	return exact.CountDNF(d), nil
}

// errNoVariables refuses a count, distributed count or sample over fewer
// than one variable: the hash families need n ≥ 1.
var errNoVariables = errors.New("mcf0: formula needs at least one variable")

// cnfFromClauses builds the CNF of DIMACS-style clauses over n variables.
func cnfFromClauses(n int, clauses [][]int) (*formula.CNF, error) {
	c := &formula.CNF{N: n, Clauses: make([]formula.Clause, 0, len(clauses))}
	if err := dimacsLists(n, clauses, func(lits []formula.Lit) { c.AddClause(lits) }); err != nil {
		return nil, err
	}
	return c, nil
}

// dnfFromTerms builds the DNF of DIMACS-style terms over n variables.
func dnfFromTerms(n int, terms [][]int) (*formula.DNF, error) {
	d := &formula.DNF{N: n, Terms: make([]formula.Term, 0, len(terms))}
	if err := dimacsLists(n, terms, func(lits []formula.Lit) { d.AddTerm(lits) }); err != nil {
		return nil, err
	}
	return d, nil
}

// countEstimation runs Algorithm 7 on the formula eval over src's
// variables: RoughCount over src's linear tester picks the range
// parameter, and the exhaustive tester answers the trailing-zero queries,
// so n is capped (errEstimationCap). An unsatisfiable formula counts 0.
func countEstimation(src oracle.Source, eval func(bitvec.BitVec) bool, cfg Config) (CountResult, error) {
	n := src.NVars()
	if n > oracle.ExhaustiveMaxVars {
		return CountResult{}, errEstimationCap
	}
	rParam, _ := counting.RoughCount(oracle.LinearTester{Source: src}, n, roughTrials(cfg), cfg.rng())
	if rParam < 0 {
		return CountResult{}, nil
	}
	res := counting.ApproxModelCountEst(oracle.NewExhaustive(n, eval), n, rParam, cfg.options())
	return CountResult{Estimate: res.Estimate, OracleQueries: res.OracleQueries}, nil
}

// errEstimationCap refuses the Estimation algorithm and protocol above
// oracle.ExhaustiveMaxVars variables: their trailing-zero queries go to
// the exhaustive tester.
var errEstimationCap = fmt.Errorf("mcf0: estimation limited to %d variables (exhaustive trailing-zero oracle)", oracle.ExhaustiveMaxVars)

// roughTrials sizes the Flajolet–Martin median used to pick the Estimation
// algorithm's range parameter.
func roughTrials(cfg Config) int {
	if cfg.Iterations > 0 {
		return cfg.Iterations
	}
	return 9
}

// dimacsLists converts DIMACS-style literal lists (±v, 1 ≤ v ≤ n) and
// hands each to add in order, as its own sub-slice of one literal slab:
// a formula's literals cost one allocation, not one per list.
func dimacsLists(n int, raw [][]int, add func([]formula.Lit)) error {
	total := 0
	for _, l := range raw {
		total += len(l)
	}
	slab := make([]formula.Lit, total)
	for _, l := range raw {
		lits := slab[:len(l):len(l)]
		slab = slab[len(l):]
		for i, v := range l {
			neg := v < 0
			if neg {
				v = -v
			}
			if v < 1 || v > n {
				return fmt.Errorf("mcf0: literal %d out of range [1,%d]", v, n)
			}
			lits[i] = formula.Lit{Var: v - 1, Neg: neg}
		}
		add(lits)
	}
	return nil
}

// F0 is a streaming distinct-elements sketch over a universe of nBits-bit
// integers (nBits ≤ 64), safe for concurrent use. It is a concurrent
// front (streaming.Concurrent) over one of the paper's F0 sketches: up to
// a cap of P replicas that share one seed sketch's hash draws, each
// padded onto its own cache lines. A writer claims the lowest replica it
// can lock without blocking; the front starts with one replica and builds
// another, empty, only when a writer finds every built one busy with
// another writer. NewF0 and DecodeF0 cap it at one replica, so
// concurrent writers take turns and each batch fans its sketch copies out
// across Config.Parallelism workers; NewConcurrentF0 and
// DecodeConcurrentF0 cap it at P replicas that each ingest serially on
// the claiming goroutine. Estimate merges the replicas on demand and
// caches the answer until the next write; a cached answer takes no
// replica lock.
//
// Because the underlying sketches are idempotent, order-insensitive
// functions of the element set and all replicas share draws, the merged
// estimate and snapshot do not depend on which goroutine's elements
// landed on which replica: fixed-seed estimates and snapshot bytes are
// bit-identical at every replica count and parallelism level.
//
// A sketch that panics inside the front (a bug, never a caller error)
// fails it: the locks it held are released, and from then on AddBatch
// ingests nothing, estimates are 0 and MarshalBinary returns the failure,
// all at once, and Err reports it. Rebuild such a sketch from a snapshot.
type F0 struct {
	nBits int
	front *streaming.Concurrent
}

// f0Kinds maps each F0 algorithm to its sketch's wire kind.
var f0Kinds = map[Algorithm]byte{
	"":                  wire.KindBucketing,
	AlgorithmBucketing:  wire.KindBucketing,
	AlgorithmMinimum:    wire.KindMinimum,
	AlgorithmEstimation: wire.KindEstimation,
}

// NewF0 builds an F0 sketch using the selected algorithm
// (AlgorithmBucketing, AlgorithmMinimum, or AlgorithmEstimation), capped
// at one replica. It refuses, before allocating, every shape DecodeF0
// would refuse.
func NewF0(nBits int, alg Algorithm, cfg Config) (*F0, error) {
	return newF0(nBits, alg, cfg, 1)
}

// newF0 builds an F0 front of the given replica cap.
func newF0(nBits int, alg Algorithm, cfg Config, replicas int) (*F0, error) {
	if nBits < 1 || nBits > 64 {
		return nil, fmt.Errorf("mcf0: universe width %d out of [1,64]", nBits)
	}
	kind, ok := f0Kinds[alg]
	if !ok {
		return nil, fmt.Errorf("mcf0: unknown F0 algorithm %q", alg)
	}
	sk, err := streaming.New(kind, nBits, cfg.options())
	if err != nil {
		return nil, err
	}
	return &F0{nBits: nBits, front: streaming.NewConcurrent(sk, replicas)}, nil
}

// Add absorbs one stream element: a one-element AddBatch.
func (f *F0) Add(x uint64) { f.AddBatch([]uint64{x}) }

// AddBatch absorbs a chunk of stream elements on one replica, amortising
// acquisition over the chunk; safe to call from any goroutine.
// Equivalent to calling Add on each element in order. The whole chunk is
// validated first (an out-of-range element panics with nothing
// ingested), and elements the claimed replica already holds, from this
// chunk or an earlier one, are mostly dropped before its sketch hashes
// them — an exact no-op for a set function (callers counting accepted
// elements, such as the service's items meter, still count the raw
// chunk). A chunk whose elements are all dropped still counts in
// Version. What is left fans the sketch's copies out across the
// replica's worker pool with one dispatch for the whole chunk; chunks of
// a few hundred elements amortise the dispatch best. Each replica's
// cache is its own scratch, kept while the replica lives, so
// steady-state AddBatch allocates nothing per element. On a failed
// sketch it ingests nothing (see Err).
func (f *F0) AddBatch(xs []uint64) {
	checkElements(xs, f.nBits)
	f.front.ProcessBatch(xs)
}

// checkElements panics when an element of xs does not fit the nBits-bit
// universe (the documented Add/AddBatch contract). Batch entry points
// call it on the whole batch before caching or ingesting any of it.
func checkElements(xs []uint64, nBits int) {
	for _, x := range xs {
		if x>>uint(nBits) != 0 { // 0 at nBits = 64
			panic(fmt.Sprintf("mcf0: element %d exceeds %d-bit universe", x, nBits))
		}
	}
}

// Estimate merges the replicas and returns the combined distinct-count
// approximation; safe to interleave with concurrent Adds (their elements
// land in a later estimate). A failed sketch estimates 0 (see Err).
func (f *F0) Estimate() float64 { return f.front.Estimate() }

// SketchWords returns the summed footprint of the replicas built, in
// 64-bit words. Replica 0 is the merged state, so P built replicas report
// P copies. From the first drain with two or more built (an estimate
// miss or a snapshot), it also counts the replay logs of replicas
// 1…P−1, replayCap words each: thresh for Bucketing and Minimum, 0 for
// Estimation, whose replicas never log. The replicas' element caches are
// not counted.
func (f *F0) SketchWords() int { return f.front.SketchWords() }

// RangeF0 estimates the number of distinct tuples covered by a stream of
// d-dimensional ranges (Theorem 6), in poly(n·d) time per range.
type RangeF0 struct{ inner *setstream.RangeStream }

// NewRangeF0 builds a range-stream sketch; bitsPerDim fixes each
// dimension's width (each ≤ 63, at most 1024 dimensions).
func NewRangeF0(bitsPerDim []int, cfg Config) (*RangeF0, error) {
	opts, err := setStreamOptions(bitsPerDim, cfg)
	if err != nil {
		return nil, err
	}
	return &RangeF0{setstream.NewRangeStream(bitsPerDim, opts)}, nil
}

// setStreamOptions checks a range or progression shape — each width in
// [1,63], and the whole inside the snapshot decoder's bounds — and
// returns cfg's options.
func setStreamOptions(bitsPerDim []int, cfg Config) (params.Options, error) {
	for _, b := range bitsPerDim {
		if b < 1 || b > 63 {
			return params.Options{}, fmt.Errorf("mcf0: dimension width %d out of [1,63]", b)
		}
	}
	opts := cfg.options()
	return opts, setstream.CheckShape(bitsPerDim, opts)
}

// AddRange absorbs the box ∏ᵢ [lo[i], hi[i]].
func (r *RangeF0) AddRange(lo, hi []uint64) error {
	return r.AddRangeBatch([][]uint64{lo}, [][]uint64{hi})
}

// AddRangeBatch absorbs a chunk of boxes (los[k], his[k] bound box k) with
// a single worker-pool dispatch. On any invalid box the whole batch is
// rejected and the sketch is unchanged.
func (r *RangeF0) AddRangeBatch(los, his [][]uint64) error {
	if len(los) != len(his) {
		return fmt.Errorf("mcf0: batch has %d lower and %d upper bounds", len(los), len(his))
	}
	bits := r.inner.Dims()
	mrs := make([]formula.MultiRange, len(los))
	for k := range los {
		if len(los[k]) != len(bits) || len(his[k]) != len(bits) {
			return fmt.Errorf("mcf0: range %d has %d dims, sketch has %d", k, len(los[k]), len(bits))
		}
		dims := make([]formula.Range, len(los[k]))
		for i := range los[k] {
			dims[i] = formula.Range{Lo: los[k][i], Hi: his[k][i], Bits: bits[i]}
		}
		mrs[k] = formula.MultiRange{Dims: dims}
	}
	return r.inner.ProcessRangeBatch(mrs)
}

// Estimate returns the approximate union size.
func (r *RangeF0) Estimate() float64 { return r.inner.Estimate() }

// ProgressionF0 estimates distinct tuples covered by d-dimensional
// arithmetic progressions with power-of-two steps (Corollary 1).
type ProgressionF0 struct{ inner *setstream.ProgressionStream }

// NewProgressionF0 builds a progression-stream sketch; bitsPerDim fixes
// each dimension's width (each ≤ 63, at most 1024 dimensions).
func NewProgressionF0(bitsPerDim []int, cfg Config) (*ProgressionF0, error) {
	opts, err := setStreamOptions(bitsPerDim, cfg)
	if err != nil {
		return nil, err
	}
	return &ProgressionF0{setstream.NewProgressionStream(bitsPerDim, opts)}, nil
}

// AddProgression absorbs ∏ᵢ {a[i], a[i]+2^logStep[i], …} ∩ [a[i], b[i]].
func (p *ProgressionF0) AddProgression(a, b []uint64, logStep []int) error {
	bits := p.inner.Dims()
	if len(a) != len(bits) || len(b) != len(bits) || len(logStep) != len(bits) {
		return fmt.Errorf("mcf0: progression arity mismatch")
	}
	ps := make([]formula.Progression, len(a))
	for i := range a {
		ps[i] = formula.Progression{A: a[i], B: b[i], LogStep: logStep[i], Bits: bits[i]}
	}
	return p.inner.ProcessProgression(ps)
}

// Estimate returns the approximate union size.
func (p *ProgressionF0) Estimate() float64 { return p.inner.Estimate() }

// DNFSetF0 estimates F0 over a stream of DNF sets (Theorem 5), each given
// as DIMACS-style term lists over a fixed n.
type DNFSetF0 struct{ inner *setstream.DNFStream }

// NewDNFSetF0 builds a DNF-set-stream sketch over n variables,
// 1 ≤ n ≤ 65536; it refuses a shape whose snapshot could not be restored.
func NewDNFSetF0(n int, cfg Config) (*DNFSetF0, error) {
	opts := cfg.options()
	if err := setstream.CheckShape([]int{n}, opts); err != nil {
		return nil, err
	}
	return &DNFSetF0{setstream.NewDNFStream(n, opts)}, nil
}

// AddDNF absorbs one DNF set.
func (d *DNFSetF0) AddDNF(terms [][]int) error {
	f, err := dnfFromTerms(d.inner.N(), terms)
	if err != nil {
		return err
	}
	d.inner.ProcessDNF(f)
	return nil
}

// AddDNFBatch absorbs a chunk of DNF sets with a single worker-pool
// dispatch. On any invalid term list the whole batch is rejected and the
// sketch is unchanged.
func (d *DNFSetF0) AddDNFBatch(termss [][][]int) error {
	fs := make([]*formula.DNF, len(termss))
	for k, terms := range termss {
		f, err := dnfFromTerms(d.inner.N(), terms)
		if err != nil {
			return err
		}
		fs[k] = f
	}
	d.inner.ProcessDNFBatch(fs)
	return nil
}

// AddElementBatch absorbs a chunk of plain elements (singleton sets) with
// a single worker-pool dispatch. Element x is the assignment whose
// variables, read from variable 1, spell x in n binary digits. As with
// F0.AddBatch, the whole chunk is validated first: an element that does
// not fit the n-bit universe panics with nothing ingested.
func (d *DNFSetF0) AddElementBatch(xs []uint64) {
	n := d.inner.N()
	checkElements(xs, n)
	fs := make([]*formula.DNF, len(xs))
	for k, x := range xs {
		v := bitvec.New(n)
		for i := 0; i < min(n, 64); i++ {
			v.Set(n-1-i, x>>uint(i)&1 != 0)
		}
		fs[k] = formula.SingletonDNF(v)
	}
	d.inner.ProcessDNFBatch(fs)
}

// Estimate returns the approximate union size.
func (d *DNFSetF0) Estimate() float64 { return d.inner.Estimate() }

// AffineF0 estimates F0 over a stream of affine spaces {x : Ax = b}
// (Theorem 7), with n ≤ 64 and rows given as coefficient bitmasks (bit i of
// rows[j] is the coefficient of variable i in row j).
type AffineF0 struct{ inner *setstream.AffineStream }

// NewAffineF0 builds an affine-stream sketch over an n-bit universe.
func NewAffineF0(n int, cfg Config) (*AffineF0, error) {
	if n < 1 || n > 64 {
		return nil, fmt.Errorf("mcf0: universe width %d out of [1,64]", n)
	}
	opts := cfg.options()
	if err := setstream.CheckShape([]int{n}, opts); err != nil {
		return nil, err
	}
	return &AffineF0{setstream.NewAffineStream(n, opts)}, nil
}

// AddAffine absorbs {x : Ax = b}: row j's coefficients are the bits of
// rows[j] (bit i ↔ variable i) and b's bit j is (rhs>>j)&1.
func (a *AffineF0) AddAffine(rows []uint64, rhs uint64) {
	n := a.inner.N()
	m := gf2.NewMatrix(len(rows), n)
	for j, mask := range rows {
		// Bit i of a vector's first word is its bit i: keep the low n bits.
		m.Row(j).Words()[0] = mask & (^uint64(0) >> (64 - uint(n)))
	}
	b := bitvec.New(len(rows))
	for j := range rows {
		if rhs&(1<<uint(j)) != 0 {
			b.Set(j, true)
		}
	}
	a.inner.ProcessAffine(m, b)
}

// Estimate returns the approximate union size.
func (a *AffineF0) Estimate() float64 { return a.inner.Estimate() }

// CountWeightedDNF computes the weighted model count W(φ) of a DNF with
// dyadic weights ρ(xᵢ) = num[i]/2^bits[i], via the paper's reduction to F0
// over d-dimensional ranges.
func CountWeightedDNF(n int, terms [][]int, num []uint64, bits []int, cfg Config) (float64, error) {
	d, err := dnfFromTerms(n, terms)
	if err != nil {
		return 0, err
	}
	w := exact.WeightFunc{Num: num, Bits: bits}
	if !w.Validate(n) {
		return 0, fmt.Errorf("mcf0: invalid weight function (need 0 < num < 2^bits per variable)")
	}
	return setstream.WeightedCount(setstream.WeightedDNF{D: d, W: w}, cfg.options()), nil
}

// DistResult reports a distributed protocol's estimate and exact
// communication cost in bits.
type DistResult struct {
	Estimate     float64
	CommBits     int64
	CoordToSites int64
	SitesToCoord int64
}

// DistributedCountDNF partitions the DNF's terms round-robin over `sites`
// sites and runs the selected distributed protocol (Section 4), returning
// the coordinator's estimate and metered communication.
// AlgorithmEstimation requires n ≤ oracle.ExhaustiveMaxVars (24).
func DistributedCountDNF(n int, terms [][]int, sites int, alg Algorithm, cfg Config) (DistResult, error) {
	d, err := dnfFromTerms(n, terms)
	if err != nil {
		return DistResult{}, err
	}
	if n < 1 {
		return DistResult{}, errNoVariables
	}
	if sites < 1 {
		return DistResult{}, fmt.Errorf("mcf0: need at least one site")
	}
	parts := distributed.Split(d, sites)
	opts := cfg.options()
	var res distributed.Result
	switch alg {
	case AlgorithmBucketing, "":
		res = distributed.Bucketing(parts, opts)
	case AlgorithmMinimum:
		res = distributed.Minimum(parts, opts)
	case AlgorithmEstimation:
		if n > oracle.ExhaustiveMaxVars {
			return DistResult{}, errEstimationCap
		}
		r, comm := distributed.RoughR(parts, cfg.Resolved().Iterations, opts)
		if r >= 0 { // an unsatisfiable φ estimates 0 and pays RoughR alone
			res = distributed.Estimation(parts, r, opts)
		}
		res.Comm.CoordToSites += comm.CoordToSites
		res.Comm.SitesToCoord += comm.SitesToCoord
	default:
		return DistResult{}, fmt.Errorf("mcf0: unknown distributed protocol %q", alg)
	}
	return DistResult{
		Estimate:     res.Estimate,
		CommBits:     res.Comm.Total(),
		CoordToSites: res.Comm.CoordToSites,
		SitesToCoord: res.Comm.SitesToCoord,
	}, nil
}

// SampleDNFTerms draws count near-uniform satisfying assignments of a DNF
// (given as DIMACS-style term lists), returned as bit strings ("0"/"1",
// variable 1 first). Implements the paper's §6 sampling direction via the
// bucketing sketch. Returns nil if the formula is unsatisfiable.
func SampleDNFTerms(n int, terms [][]int, count int, cfg Config) ([]string, error) {
	d, err := dnfFromTerms(n, terms)
	if err != nil {
		return nil, err
	}
	if n < 1 {
		return nil, errNoVariables
	}
	return renderSamples(counting.Sample(oracle.NewDNFSource(d), count, cfg.options())), nil
}

// SampleCNFClauses draws count near-uniform satisfying assignments of a
// CNF via the SAT-backed oracle. Returns nil if unsatisfiable.
func SampleCNFClauses(n int, clauses [][]int, count int, cfg Config) ([]string, error) {
	c, err := cnfFromClauses(n, clauses)
	if err != nil {
		return nil, err
	}
	if n < 1 {
		return nil, errNoVariables
	}
	return renderSamples(counting.Sample(oracle.NewCNFSource(c), count, cfg.options())), nil
}

func renderSamples(xs []bitvec.BitVec) []string {
	if xs == nil {
		return nil
	}
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = x.String()
	}
	return out
}

// WithinFactor reports whether est is within the (1+eps) band around truth
// — the acceptance predicate of the cmd/experiments accuracy tables
// (E01–E14, A01–A05; `go run ./cmd/experiments -run <id>`).
func WithinFactor(est, truth, eps float64) bool {
	return stats.WithinFactor(est, truth, eps)
}

// Log2 is a convenience for reporting counts on a log scale.
func Log2(x float64) float64 { return math.Log2(x) }
