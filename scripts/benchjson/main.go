// Command benchjson converts `go test -bench -benchmem` output into the
// BENCH_<k>.json format used to track the repository's performance
// trajectory across PRs. It pairs a set of baseline files (benchmarks run
// before a change) with current files and emits one JSON object per
// benchmark with ns/op, B/op, allocs/op for both runs plus derived ratios.
//
// Usage:
//
//	benchjson -out BENCH_7.json \
//	    -baseline bench/baseline7_hot.txt -baseline bench/baseline7_sat.txt \
//	    -current current_hot.txt -current current_sat.txt
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Metrics holds one benchmark run's figures; pointers distinguish "not
// reported" from zero.
type Metrics struct {
	NsPerOp     float64  `json:"ns_per_op"`
	BytesPerOp  *float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp *float64 `json:"allocs_per_op,omitempty"`
}

// Entry pairs the baseline and current runs of one benchmark.
type Entry struct {
	Baseline *Metrics `json:"baseline,omitempty"`
	Current  *Metrics `json:"current,omitempty"`
	// SpeedupNs is baseline/current ns per op (>1 means faster now).
	SpeedupNs float64 `json:"speedup_ns,omitempty"`
	// AllocReduction is baseline/current allocs per op; +Inf (rendered as
	// the string "inf") when the current run performs zero allocations.
	AllocReduction json.RawMessage `json:"alloc_reduction,omitempty"`
}

type fileList []string

func (f *fileList) String() string     { return strings.Join(*f, ",") }
func (f *fileList) Set(v string) error { *f = append(*f, v); return nil }

var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+(.*)$`)

func parseFile(path string, into map[string]*Metrics) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	pkg := ""
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "pkg: ") {
			pkg = strings.TrimPrefix(line, "pkg: ")
			continue
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		name := pkg + "/" + m[1]
		met := &Metrics{}
		fields := strings.Fields(m[2])
		for i := 0; i+1 < len(fields); i += 2 {
			val, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				met.NsPerOp = val
			case "B/op":
				v := val
				met.BytesPerOp = &v
			case "allocs/op":
				v := val
				met.AllocsPerOp = &v
			}
		}
		into[name] = met
	}
	return sc.Err()
}

func main() {
	var baselines, currents fileList
	out := flag.String("out", "BENCH.json", "output JSON path")
	flag.Var(&baselines, "baseline", "baseline benchmark output file (repeatable)")
	flag.Var(&currents, "current", "current benchmark output file (repeatable)")
	note := flag.String("note", "", "environment caveat appended to the output note")
	flag.Parse()

	buf, err := buildReport(baselines, currents, *note)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
}

// buildReport parses the transcript files and renders the BENCH_<k>.json
// document: one entry per benchmark, sorted by name, with derived ratios
// where both runs are present.
func buildReport(baselines, currents []string, note string) ([]byte, error) {
	base := map[string]*Metrics{}
	cur := map[string]*Metrics{}
	for _, p := range baselines {
		if err := parseFile(p, base); err != nil {
			return nil, err
		}
	}
	for _, p := range currents {
		if err := parseFile(p, cur); err != nil {
			return nil, err
		}
	}

	entries := map[string]*Entry{}
	for name, m := range base {
		entries[name] = &Entry{Baseline: m}
	}
	for name, m := range cur {
		e := entries[name]
		if e == nil {
			e = &Entry{}
			entries[name] = e
		}
		e.Current = m
	}
	for _, e := range entries {
		if e.Baseline == nil || e.Current == nil {
			continue
		}
		if e.Current.NsPerOp > 0 {
			e.SpeedupNs = round2(e.Baseline.NsPerOp / e.Current.NsPerOp)
		}
		if e.Baseline.AllocsPerOp != nil && e.Current.AllocsPerOp != nil {
			if *e.Current.AllocsPerOp == 0 {
				if *e.Baseline.AllocsPerOp == 0 {
					e.AllocReduction = json.RawMessage(`1`)
				} else {
					e.AllocReduction = json.RawMessage(`"inf"`)
				}
			} else {
				e.AllocReduction = json.RawMessage(
					strconv.FormatFloat(round2(*e.Baseline.AllocsPerOp / *e.Current.AllocsPerOp), 'f', -1, 64))
			}
		}
	}

	names := make([]string, 0, len(entries))
	for n := range entries {
		names = append(names, n)
	}
	sort.Strings(names)
	ordered := make(map[string]*Entry, len(entries))
	for _, n := range names {
		ordered[n] = entries[n]
	}

	doc := struct {
		Note       string            `json:"note"`
		Benchmarks map[string]*Entry `json:"benchmarks"`
	}{
		Note:       "ns/op, B/op, allocs/op from `go test -bench -benchmem`; baseline = pre-change tree, current = this PR. Regenerate with scripts/bench.sh.",
		Benchmarks: ordered,
	}
	if note != "" {
		doc.Note += " " + note
	}
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(buf, '\n'), nil
}

func round2(x float64) float64 {
	return float64(int64(x*100+0.5)) / 100
}
