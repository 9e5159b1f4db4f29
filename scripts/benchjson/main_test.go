package main

import (
	"encoding/json"
	"strings"
	"testing"
)

// parsedDoc mirrors the output document for assertions.
type parsedDoc struct {
	Note       string            `json:"note"`
	Benchmarks map[string]*Entry `json:"benchmarks"`
}

func build(t *testing.T, baselines, currents []string, note string) parsedDoc {
	t.Helper()
	buf, err := buildReport(baselines, currents, note)
	if err != nil {
		t.Fatal(err)
	}
	var doc parsedDoc
	if err := json.Unmarshal(buf, &doc); err != nil {
		t.Fatalf("output not JSON: %v\n%s", err, buf)
	}
	return doc
}

// TestParseFile: transcript lines become pkg-prefixed metrics; the -N
// GOMAXPROCS suffix is stripped; non-benchmark lines are skipped; runs
// without -benchmem leave the alloc pointers nil.
func TestParseFile(t *testing.T) {
	into := map[string]*Metrics{}
	if err := parseFile("testdata/baseline.txt", into); err != nil {
		t.Fatal(err)
	}
	if len(into) != 5 {
		t.Fatalf("parsed %d benchmarks, want 5: %v", len(into), into)
	}
	xor := into["mcf0/internal/bitvec/BenchmarkXor"]
	if xor == nil {
		t.Fatalf("BenchmarkXor missing (suffix not stripped or pkg prefix wrong): %v", into)
	}
	if xor.NsPerOp != 96.0 || xor.BytesPerOp == nil || *xor.BytesPerOp != 64 ||
		xor.AllocsPerOp == nil || *xor.AllocsPerOp != 2 {
		t.Fatalf("BenchmarkXor metrics wrong: %+v", xor)
	}
	// A line without -benchmem columns (and no -N suffix).
	dot := into["mcf0/internal/bitvec/BenchmarkDot"]
	if dot == nil || dot.NsPerOp != 240 || dot.BytesPerOp != nil || dot.AllocsPerOp != nil {
		t.Fatalf("BenchmarkDot metrics wrong: %+v", dot)
	}
	// The second pkg: header reassigns the prefix.
	if into["mcf0/internal/streaming/BenchmarkMinimumAdd"] == nil {
		t.Fatal("second-package benchmark missing")
	}
	// Zero-alloc baselines record an explicit 0, not nil.
	pop := into["mcf0/internal/bitvec/BenchmarkPopCount"]
	if pop.AllocsPerOp == nil || *pop.AllocsPerOp != 0 {
		t.Fatalf("zero allocs not recorded: %+v", pop)
	}

	if err := parseFile("testdata/nonexistent.txt", into); err == nil {
		t.Fatal("missing file accepted")
	}
}

// TestBuildReportRatios: paired runs get SpeedupNs = baseline/current and
// AllocReduction in all three renderings (number, 1, "inf").
func TestBuildReportRatios(t *testing.T) {
	doc := build(t, []string{"testdata/baseline.txt"}, []string{"testdata/current.txt"}, "")

	// 96.0 / 48.0 = 2.00, and 2 allocs → 0 allocs renders "inf".
	xor := doc.Benchmarks["mcf0/internal/bitvec/BenchmarkXor"]
	if xor == nil || xor.SpeedupNs != 2 {
		t.Fatalf("BenchmarkXor speedup: %+v", xor)
	}
	if string(xor.AllocReduction) != `"inf"` {
		t.Fatalf("inf alloc reduction rendered %s", xor.AllocReduction)
	}

	// 0 allocs → 0 allocs renders the number 1.
	pop := doc.Benchmarks["mcf0/internal/bitvec/BenchmarkPopCount"]
	if string(pop.AllocReduction) != `1` {
		t.Fatalf("zero-to-zero alloc reduction rendered %s", pop.AllocReduction)
	}
	if pop.SpeedupNs != 1.11 { // 55.5/50.0 rounded to 2 places
		t.Fatalf("BenchmarkPopCount speedup %v, want 1.11", pop.SpeedupNs)
	}

	// 3 allocs → 1 alloc renders the ratio as a number.
	min := doc.Benchmarks["mcf0/internal/streaming/BenchmarkMinimumAdd"]
	if min.SpeedupNs != 2 || string(min.AllocReduction) != `3` {
		t.Fatalf("BenchmarkMinimumAdd ratios: speedup %v alloc %s", min.SpeedupNs, min.AllocReduction)
	}

	// No -benchmem on either side: no alloc ratio at all.
	dot := doc.Benchmarks["mcf0/internal/bitvec/BenchmarkDot"]
	if dot.SpeedupNs != 2 || dot.AllocReduction != nil {
		t.Fatalf("BenchmarkDot ratios: %+v", dot)
	}

	// Unpaired benchmarks keep their single side and derive nothing.
	bo := doc.Benchmarks["mcf0/internal/streaming/BenchmarkBaselineOnly"]
	if bo == nil || bo.Baseline == nil || bo.Current != nil || bo.SpeedupNs != 0 {
		t.Fatalf("baseline-only entry wrong: %+v", bo)
	}
	co := doc.Benchmarks["mcf0/internal/streaming/BenchmarkCurrentOnly"]
	if co == nil || co.Current == nil || co.Baseline != nil || co.SpeedupNs != 0 {
		t.Fatalf("current-only entry wrong: %+v", co)
	}

	if len(doc.Benchmarks) != 6 {
		t.Fatalf("%d entries, want 6", len(doc.Benchmarks))
	}
}

// TestNoteAppend: -note appends the environment caveat to the standard
// document note (the nproc=1 path bench.sh uses).
func TestNoteAppend(t *testing.T) {
	plain := build(t, []string{"testdata/baseline.txt"}, []string{"testdata/current.txt"}, "")
	if !strings.Contains(plain.Note, "go test -bench") || strings.Contains(plain.Note, "nproc") {
		t.Fatalf("default note wrong: %q", plain.Note)
	}
	caveat := "NOTE: single-core container (nproc=1); parallel speedups understate multi-core hardware."
	noted := build(t, []string{"testdata/baseline.txt"}, []string{"testdata/current.txt"}, caveat)
	if !strings.HasSuffix(noted.Note, caveat) || !strings.HasPrefix(noted.Note, plain.Note) {
		t.Fatalf("caveat not appended: %q", noted.Note)
	}
}

// TestBuildReportErrors: unreadable inputs fail instead of emitting a
// silently incomplete report.
func TestBuildReportErrors(t *testing.T) {
	if _, err := buildReport([]string{"testdata/nope.txt"}, nil, ""); err == nil {
		t.Fatal("missing baseline accepted")
	}
	if _, err := buildReport(nil, []string{"testdata/nope.txt"}, ""); err == nil {
		t.Fatal("missing current accepted")
	}
	// No inputs at all still renders a valid (empty) document.
	doc := build(t, nil, nil, "")
	if len(doc.Benchmarks) != 0 {
		t.Fatalf("empty inputs produced entries: %v", doc.Benchmarks)
	}
}

// TestRound2 pins the ratio rounding used in the published JSON.
func TestRound2(t *testing.T) {
	cases := map[float64]float64{1.006: 1.01, 2.0: 2, 1.114: 1.11, 0.999: 1}
	for in, want := range cases {
		if got := round2(in); got != want {
			t.Errorf("round2(%v) = %v, want %v", in, got, want)
		}
	}
}
