package main

import (
	"fmt"
	"strings"
	"time"

	"mcf0/internal/params"
	"mcf0/internal/stats"
)

// table is a minimal fixed-width text table writer.
type table struct {
	headers []string
	rows    [][]string
}

func newTable(headers ...string) *table { return &table{headers: headers} }

func (t *table) add(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.4g", v)
		case string:
			row[i] = v
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.rows = append(t.rows, row)
}

func (t *table) print() {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Println("  " + strings.Join(parts, "  "))
	}
	line(t.headers)
	seps := make([]string, len(t.headers))
	for i := range seps {
		seps[i] = strings.Repeat("-", widths[i])
	}
	line(seps)
	for _, r := range t.rows {
		line(r)
	}
}

// harnessOpts is the (ε, δ) parameter set every experiment starts from:
// Thresh and Iterations sized for the harness (smaller under -quick),
// seed's generator and the -par worker bound.
func harnessOpts(seed uint64, c runConfig) params.Options {
	o := params.Options{Epsilon: 0.8, Delta: 0.2, Thresh: 32, Iterations: 11,
		RNG: stats.NewRNG(seed), Parallelism: c.par}
	if c.quick {
		o.Thresh = 16
		o.Iterations = 5
	}
	return o
}

// accuracy runs an estimator over several seeds against a known truth and
// returns (median relative error, fraction within the (1+eps) band).
func accuracy(truth float64, eps float64, trials int, run func(seed uint64) float64) (relErr, rate float64) {
	if trials < 1 {
		trials = 1
	}
	var errs []float64
	ok := 0
	for s := 0; s < trials; s++ {
		est := run(uint64(10_000 + s))
		if stats.WithinFactor(est, truth, eps) {
			ok++
		}
		re := est/truth - 1
		if re < 0 {
			re = -re
		}
		errs = append(errs, re)
	}
	return stats.Median(errs), float64(ok) / float64(trials)
}

// timeIt measures wall-clock for f.
func timeIt(f func()) time.Duration {
	start := time.Now()
	f()
	return time.Since(start)
}

func pick(quick bool, q, full int) int {
	if quick {
		return q
	}
	return full
}
