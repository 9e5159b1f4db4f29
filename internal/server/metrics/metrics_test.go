package metrics

import (
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"testing"
)

func TestRenderSortedAndLabeled(t *testing.T) {
	m := New()
	m.Add("f0d_auth_failures_total", 2)
	m.AddLabeled("f0d_ingest_elements_total", Label("tenant", "b"), 5)
	m.AddLabeled("f0d_ingest_elements_total", Label("tenant", "a"), 3)
	m.AddLabeled("f0d_ingest_elements_total", Label("tenant", "a"), 4) // accumulates
	m.IncRequest("GET /healthz", 200)
	m.RegisterGauge("f0d_sketches", func() map[string]float64 {
		return map[string]float64{Label("tenant", "a"): 1}
	})

	var b strings.Builder
	m.Render(&b)
	text := b.String()

	for _, want := range []string{
		"# HELP f0d_auth_failures_total ",
		"# TYPE f0d_auth_failures_total counter",
		"f0d_auth_failures_total 2\n",
		`f0d_ingest_elements_total{tenant="a"} 7`,
		`f0d_ingest_elements_total{tenant="b"} 5`,
		`f0d_http_requests_total{code="200",route="GET /healthz"} 1`,
		"# TYPE f0d_sketches gauge",
		`f0d_sketches{tenant="a"} 1`,
		"f0d_uptime_seconds ",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}

	// Label cells of one series render in sorted order.
	if strings.Index(text, `tenant="a"} 7`) > strings.Index(text, `tenant="b"} 5`) {
		t.Error("label cells are not sorted")
	}
	// Deterministic output: two renders agree (modulo uptime).
	var b2 strings.Builder
	m.Render(&b2)
	strip := func(s string) string {
		var keep []string
		for _, line := range strings.Split(s, "\n") {
			if !strings.HasPrefix(line, "f0d_uptime_seconds ") {
				keep = append(keep, line)
			}
		}
		return strings.Join(keep, "\n")
	}
	if strip(b.String()) != strip(b2.String()) {
		t.Error("Render output is not deterministic")
	}
}

func TestLabelEscaping(t *testing.T) {
	if got := Label("tenant", `a"b\c`); got != `tenant="a\"b\\c"` {
		t.Errorf("Label escaped to %s", got)
	}
}

func TestServeHTTPContentType(t *testing.T) {
	m := New()
	rec := httptest.NewRecorder()
	m.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("Content-Type %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "f0d_uptime_seconds") {
		t.Fatal("exposition missing the uptime gauge")
	}
}

// TestMetricsDocumented cross-checks the series with HELP text against
// the docs/OPERATIONS.md "Metrics reference" table in both directions:
// every known series needs a row, and every row a known series.
func TestMetricsDocumented(t *testing.T) {
	raw, err := os.ReadFile("../../../docs/OPERATIONS.md")
	if err != nil {
		t.Fatalf("docs/OPERATIONS.md must exist and document every metric: %v", err)
	}
	_, section, ok := strings.Cut(string(raw), "## Metrics reference")
	if !ok {
		t.Fatal(`docs/OPERATIONS.md has no "## Metrics reference" section`)
	}
	section, _, _ = strings.Cut(section, "\n## ")
	documented := make(map[string]bool)
	for _, m := range regexp.MustCompile("(?m)^\\| `(f0d_[a-z0-9_]+)`").FindAllStringSubmatch(section, -1) {
		documented[m[1]] = true
	}
	for name := range helpText {
		if !documented[name] {
			t.Errorf("series %q has HELP text but no row in the docs/OPERATIONS.md metrics reference", name)
		}
	}
	for name := range documented {
		if _, ok := helpText[name]; !ok {
			t.Errorf("docs/OPERATIONS.md documents %q but metrics has no such series", name)
		}
	}
	if len(documented) < 24 {
		t.Errorf("metrics reference lists %d series; the daemon exports 24 — did a row get dropped?", len(documented))
	}
}
