// Command experiments prints the experiment tables of its registry:
// E01–E14 and the ablations A01–A05, one per id, each titled with the
// theorem, lemma or section of the paper it checks. The paper is a theory
// paper with no empirical tables of its own; each experiment here
// operationalises one of its theorems or claims. `go run
// ./cmd/experiments -run <id>` prints one table (the id is a regexp,
// e.g. E04 or 'A0[12]').
//
// Usage:
//
//	experiments [-run regexp] [-quick] [-seed n] [-trials n] [-par n]
//
// -quick shrinks workloads for a fast smoke pass; default sizes complete
// in a few minutes.
package main

import (
	"flag"
	"fmt"
	"os"
	"regexp"
	"sort"
)

// experiment is one reproducible table.
type experiment struct {
	id    string
	title string
	run   func(c runConfig)
}

type runConfig struct {
	quick  bool
	seed   uint64
	trials int
	// par bounds the sketch-copy / median-trial worker pools
	// (0 = GOMAXPROCS); estimates are identical at every level.
	par int
}

var registry []experiment

func register(id, title string, run func(runConfig)) {
	registry = append(registry, experiment{id: id, title: title, run: run})
}

func main() {
	var (
		pattern = flag.String("run", "", "regexp selecting experiment ids (default: all)")
		quick   = flag.Bool("quick", false, "smaller workloads for a fast pass")
		seed    = flag.Uint64("seed", 1, "base random seed")
		trials  = flag.Int("trials", 0, "override accuracy-trial count (0 = default)")
		par     = flag.Int("par", 0, "worker-pool bound for sketch copies and trials (0 = GOMAXPROCS)")
	)
	flag.Parse()

	var re *regexp.Regexp
	if *pattern != "" {
		var err error
		re, err = regexp.Compile(*pattern)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
	}

	sort.Slice(registry, func(i, j int) bool { return registry[i].id < registry[j].id })
	cfg := runConfig{quick: *quick, seed: *seed, trials: *trials, par: *par}
	ran := 0
	for _, e := range registry {
		if re != nil && !re.MatchString(e.id) {
			continue
		}
		fmt.Printf("==== %s — %s ====\n", e.id, e.title)
		e.run(cfg)
		fmt.Println()
		ran++
	}
	if ran == 0 {
		fmt.Fprintln(os.Stderr, "experiments: no experiment matches", *pattern)
		os.Exit(1)
	}
}
