// Command approxmc is an approximate model counter in the spirit of the
// ApproxMC tool family, implementing the three counters of "Model Counting
// meets F0 Estimation" (PODS 2021).
//
// Usage:
//
//	approxmc [flags] [file]
//
// The input is a DIMACS CNF ("p cnf") or DNF ("p dnf") formula, read from
// the file argument or standard input.
//
//	-format cnf|dnf      input representation (default cnf)
//	-alg bucketing|minimum|estimation|karpluby
//	                     counting algorithm (default bucketing = ApproxMC)
//	-eps float           tolerance ε (default 0.8)
//	-delta float         failure probability δ (default 0.2)
//	-thresh int          override sketch width 96/ε²
//	-iters int           override median trials 35·log₂(1/δ)
//	-seed int            random seed (runs are deterministic per seed)
//	-binary              use the ApproxMC2 binary search (bucketing only)
//	-v                   also report oracle-query counts and, for
//	                     SAT-backed runs, the CDCL solver's work counters
//	                     (decisions, propagations, conflicts, learned and
//	                     deleted clauses, restarts)
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"mcf0"
)

func main() { os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr)) }

// run is the command on explicit arguments and streams; it returns the
// exit status, 1 on an error (reported on stderr) and 2 on a bad flag.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("approxmc", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		format  = fs.String("format", "cnf", "input format: cnf or dnf")
		alg     = fs.String("alg", "bucketing", "algorithm: bucketing, minimum, estimation, karpluby")
		eps     = fs.Float64("eps", 0.8, "tolerance ε")
		delta   = fs.Float64("delta", 0.2, "failure probability δ")
		thresh  = fs.Int("thresh", 0, "override Thresh (0 = paper constant 96/ε²)")
		iters   = fs.Int("iters", 0, "override iterations (0 = paper constant 35·log₂(1/δ))")
		seed    = fs.Uint64("seed", 1, "random seed")
		binary  = fs.Bool("binary", false, "ApproxMC2 binary prefix search (bucketing)")
		verbose = fs.Bool("v", false, "report oracle queries")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "approxmc:", err)
		return 1
	}

	in := stdin
	if fs.NArg() > 0 {
		f, err := os.Open(fs.Arg(0))
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		in = f
	}

	cfg := mcf0.Config{
		Epsilon:      *eps,
		Delta:        *delta,
		Thresh:       *thresh,
		Iterations:   *iters,
		Seed:         *seed,
		BinarySearch: *binary,
	}

	var (
		res mcf0.CountResult
		err error
	)
	switch *format {
	case "cnf":
		res, err = mcf0.CountCNF(in, mcf0.Algorithm(*alg), cfg)
	case "dnf":
		res, err = mcf0.CountDNF(in, mcf0.Algorithm(*alg), cfg)
	default:
		err = fmt.Errorf("unknown format %q", *format)
	}
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "s mc %.6g\n", res.Estimate)
	fmt.Fprintf(stdout, "c log2(count) = %.3f\n", mcf0.Log2(res.Estimate))
	if *verbose {
		fmt.Fprintf(stdout, "c oracle queries = %d\n", res.OracleQueries)
		if st := res.Solver; st != (mcf0.SolverStats{}) {
			fmt.Fprintf(stdout, "c solver: decisions=%d propagations=%d conflicts=%d learned=%d deleted=%d restarts=%d\n",
				st.Decisions, st.Propagations, st.Conflicts, st.Learned, st.Deleted, st.Restarts)
			shrink := 0.0
			if st.LearnedLits > 0 {
				shrink = 100 * float64(st.MinimizedLits) / float64(st.LearnedLits)
			}
			fmt.Fprintf(stdout, "c solver: learned-lits=%d minimized-lits=%d shrink=%.1f%%\n",
				st.LearnedLits, st.MinimizedLits, shrink)
		}
	}
	return 0
}
