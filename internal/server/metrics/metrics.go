// Package metrics is the f0d daemon's counter registry and Prometheus
// text exposition. It is deliberately dependency-free: counters are
// (name, label-set) → float64 cells guarded by one mutex (the handlers'
// hot paths touch a counter once per HTTP request, so contention is not a
// concern), gauges are callbacks sampled at scrape time, and ServeHTTP
// renders everything in the Prometheus text format (version 0.0.4) in
// deterministic sorted order.
//
// Known f0d_* series carry HELP/TYPE headers from a static table; see
// docs/OPERATIONS.md for the full metrics reference.
package metrics

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"
)

// Metrics is a registry of counters and gauge callbacks.
type Metrics struct {
	start time.Time

	mu      sync.Mutex
	series  map[string]map[string]float64 // name -> rendered labels -> value
	gaugeFn []gauge
}

type gauge struct {
	name string
	fn   func() map[string]float64 // rendered labels -> value ("" = unlabeled)
}

// New returns an empty registry; uptime is measured from this call.
func New() *Metrics {
	return &Metrics{start: time.Now(), series: make(map[string]map[string]float64)}
}

// Add increments the unlabeled counter name by v.
func (m *Metrics) Add(name string, v float64) { m.AddLabeled(name, "", v) }

// AddLabeled increments the counter cell (name, labels) by v; labels is a
// rendered label list such as `tenant="acme"` (see Label).
func (m *Metrics) AddLabeled(name, labels string, v float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	cells := m.series[name]
	if cells == nil {
		cells = make(map[string]float64)
		m.series[name] = cells
	}
	cells[labels] += v
}

// IncRequest counts one served HTTP request on the given route pattern
// with the given status code.
func (m *Metrics) IncRequest(route string, code int) {
	m.AddLabeled("f0d_http_requests_total",
		fmt.Sprintf("code=\"%d\",route=%q", code, route), 1)
}

// RegisterGauge registers a callback sampled at scrape time; it returns
// the gauge's cells as rendered-labels → value ("" for an unlabeled
// gauge). Callbacks run outside the registry lock and must be safe to
// call from any goroutine.
func (m *Metrics) RegisterGauge(name string, fn func() map[string]float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.gaugeFn = append(m.gaugeFn, gauge{name: name, fn: fn})
}

// Label renders one label pair, escaping the value.
func Label(key, value string) string { return fmt.Sprintf("%s=%q", key, value) }

// helpText carries the HELP line and metric type of every known series.
var helpText = map[string]struct {
	help  string
	gauge bool
}{
	"f0d_http_requests_total":       {help: "HTTP requests served, by route pattern and status code."},
	"f0d_ingest_elements_total":     {help: "Stream elements accepted into sketches, by tenant."},
	"f0d_ingest_requests_total":     {help: "Ingest (add) requests accepted, by tenant."},
	"f0d_estimate_queries_total":    {help: "Estimate queries served, by tenant."},
	"f0d_estimate_cache_hits_total": {help: "Estimate queries answered from the version-counter cache, by tenant."},
	"f0d_snapshots_total":           {help: "Sketch snapshots persisted, by tenant."},
	"f0d_snapshot_bytes_total":      {help: "Bytes of encoded sketch snapshots persisted, by tenant."},
	"f0d_auth_failures_total":       {help: "Requests rejected for a missing or unknown bearer token."},
	"f0d_rate_limited_total":        {help: "Requests rejected by the per-tenant rate limiter, by tenant."},
	"f0d_count_requests_total":      {help: "One-shot model-counting requests served, by tenant."},
	"f0d_oracle_queries_total":      {help: "NP-oracle (SAT) queries spent by model-counting requests."},
	"f0d_solver_decisions_total":    {help: "CDCL solver decisions across model-counting requests."},
	"f0d_solver_propagations_total": {help: "CDCL solver propagations across model-counting requests."},
	"f0d_solver_conflicts_total":    {help: "CDCL solver conflicts across model-counting requests."},
	"f0d_solver_learned_total":      {help: "CDCL learned clauses across model-counting requests."},
	"f0d_solver_deleted_total":      {help: "CDCL learned clauses deleted by database reduction."},
	"f0d_solver_restarts_total":     {help: "CDCL solver restarts across model-counting requests."},
	"f0d_sketches":                  {help: "Live sketches, by tenant.", gauge: true},
	"f0d_sketches_failed":           {help: "Live sketches whose front has failed (a sketch call panicked), by tenant.", gauge: true},
	"f0d_sketch_words":              {help: "Summed sketch footprint in 64-bit words, by tenant.", gauge: true},
	"f0d_uptime_seconds":            {help: "Seconds since the daemon started.", gauge: true},
	"f0d_shed_total":                {help: "Requests refused by the in-flight load-shedding gate (503 overloaded)."},
	"f0d_inflight_requests":         {help: "Authenticated requests currently executing.", gauge: true},
	"f0d_snapshot_breaker_state":    {help: "Snapshot disk circuit breaker state (0=closed, 1=open, 2=half-open).", gauge: true},
	"f0d_snapshot_breaker_opens":    {help: "Times the snapshot disk circuit breaker has opened since boot.", gauge: true},
}

// ServeHTTP renders the registry in the Prometheus text format.
func (m *Metrics) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	m.Render(w)
}

// Render writes the exposition to w: every counter cell plus every
// registered gauge, grouped by series name in sorted order.
func (m *Metrics) Render(w io.Writer) {
	m.mu.Lock()
	out := make(map[string]map[string]float64, len(m.series)+len(m.gaugeFn)+1)
	for name, cells := range m.series {
		cp := make(map[string]float64, len(cells))
		for l, v := range cells {
			cp[l] = v
		}
		out[name] = cp
	}
	gauges := append([]gauge(nil), m.gaugeFn...)
	m.mu.Unlock()

	for _, g := range gauges {
		out[g.name] = g.fn()
	}
	out["f0d_uptime_seconds"] = map[string]float64{"": time.Since(m.start).Seconds()}

	names := make([]string, 0, len(out))
	for name := range out {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		if ht, ok := helpText[name]; ok {
			typ := "counter"
			if ht.gauge {
				typ = "gauge"
			}
			fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", name, ht.help, name, typ)
		}
		cells := out[name]
		labels := make([]string, 0, len(cells))
		for l := range cells {
			labels = append(labels, l)
		}
		sort.Strings(labels)
		for _, l := range labels {
			if l == "" {
				fmt.Fprintf(&b, "%s %g\n", name, cells[l])
			} else {
				fmt.Fprintf(&b, "%s{%s} %g\n", name, l, cells[l])
			}
		}
	}
	io.WriteString(w, b.String())
}
