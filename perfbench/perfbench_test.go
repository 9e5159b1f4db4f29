package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// streamBytes renders a workload's op ring as bytes.
func streamBytes(t *testing.T, name string, seed uint64) []byte {
	t.Helper()
	w, err := newWorkload(name, seed, fixtureSpec(seed))
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	for _, o := range w.ring {
		fmt.Fprintf(&b, "%d %d %d %s %s %v %s\n", o.kind, o.sketch, o.formula, o.method, o.path, o.elems, o.body)
	}
	return b.Bytes()
}

func TestSeedGivesIdenticalOpStream(t *testing.T) {
	for _, name := range workloadNames {
		a, b := streamBytes(t, name, 7), streamBytes(t, name, 7)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 rendered two different op streams", name)
		}
		if bytes.Equal(a, streamBytes(t, name, 8)) {
			t.Errorf("%s: seeds 7 and 8 rendered the same op stream", name)
		}
	}
}

func TestSeedGivesIdenticalFormulas(t *testing.T) {
	a, _ := json.Marshal(genFormulas(7, formulaCount))
	b, _ := json.Marshal(genFormulas(7, formulaCount))
	if !bytes.Equal(a, b) {
		t.Fatal("seed 7 generated two different formula sets")
	}
	prefix, _ := json.Marshal(genFormulas(7, 3))
	full := genFormulas(7, formulaCount)
	head, _ := json.Marshal(full[:3])
	if !bytes.Equal(prefix, head) {
		t.Error("a shorter formula set is not a prefix of the longer one")
	}
	for k, f := range full {
		if m := exactModels(f.N, f.Clauses); m < formulaMinModels || m > formulaMaxModels {
			t.Errorf("formula %d has %d models, outside [%d, %d]", k, m, formulaMinModels, formulaMaxModels)
		}
	}
}

func TestExactModelsMatchesBruteForce(t *testing.T) {
	f := genFormulas(3, 1)[0]
	want := 0
	for a := 0; a < 1<<f.N; a++ {
		sat := true
		for _, cl := range f.Clauses {
			ok := false
			for _, l := range cl {
				v := l
				if v < 0 {
					v = -v
				}
				if (a>>(v-1)&1 == 1) == (l > 0) {
					ok = true
				}
			}
			if !ok {
				sat = false
				break
			}
		}
		if sat {
			want++
		}
	}
	if got := exactModels(f.N, f.Clauses); got != want {
		t.Fatalf("exactModels = %d, brute force %d", got, want)
	}
}

func TestSeedGivesIdenticalFixture(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the fixture twice")
	}
	dirs := []string{t.TempDir(), t.TempDir()}
	for _, d := range dirs {
		if err := buildFixture(d, fixtureSpec(7)); err != nil {
			t.Fatal(err)
		}
	}
	files, err := filepath.Glob(filepath.Join(dirs[0], "*", "*"))
	if err != nil || len(files) != 2*fixtureSketches {
		t.Fatalf("fixture has %d files (err %v), want %d", len(files), err, 2*fixtureSketches)
	}
	for _, f := range files {
		rel, _ := filepath.Rel(dirs[0], f)
		a, _ := os.ReadFile(f)
		b, err := os.ReadFile(filepath.Join(dirs[1], rel))
		if err != nil || !bytes.Equal(a, b) {
			t.Errorf("%s differs between two builds of seed 7 (err %v)", rel, err)
		}
	}
}

func TestZipfScheduleShares(t *testing.T) {
	s := zipfSchedule(rng(1, streamOps), fixtureSketches, 256)
	counts := make([]int, fixtureSketches)
	for _, j := range s {
		counts[j]++
	}
	if len(s) != 256 {
		t.Fatalf("schedule has %d targets, want 256", len(s))
	}
	for j := 1; j < len(counts); j++ {
		if counts[j] > counts[j-1] {
			t.Errorf("sketch %d gets %d ops, more than sketch %d's %d", j, counts[j], j-1, counts[j-1])
		}
	}
}

// TestMetricsMatchBenchmarkFile checks metric names and units against
// the contract's character sets and against BENCHMARK.json, so the file
// and the program cannot drift apart.
func TestMetricsMatchBenchmarkFile(t *testing.T) {
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	check := func(section string, defs []metricDef, listed []struct{ Name, Unit string }) {
		if len(defs) != len(listed) {
			t.Errorf("%s: program has %d metrics, BENCHMARK.json %d", section, len(defs), len(listed))
			return
		}
		for i, d := range defs {
			if !nameRE.MatchString(d.name) || !unitRE.MatchString(d.unit) {
				t.Errorf("%s: bad metric name or unit %q %q", section, d.name, d.unit)
			}
			if seen[d.name] {
				t.Errorf("metric %q declared twice", d.name)
			}
			seen[d.name] = true
			if listed[i].Name != d.name || listed[i].Unit != d.unit {
				t.Errorf("%s[%d]: program %s/%s, BENCHMARK.json %s/%s", section, i, d.name, d.unit, listed[i].Name, listed[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, spec.EndToEnd)
	check("per_layer", perLayer, spec.PerLayer)
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, program %d", len(spec.Workloads), len(workloadNames))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloadNames[i])
		}
	}
}
