package server_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"mcf0/internal/server"
	"mcf0/internal/server/middleware"
)

const (
	testTenant = "acme"
	testToken  = "test-token-1"
)

// newServer builds a daemon with one default tenant (unless cfg already
// names tenants) and mounts it on an httptest server.
func newServer(t *testing.T, cfg server.Config) (*server.Server, *httptest.Server) {
	t.Helper()
	if cfg.Tenants == nil {
		cfg.Tenants = []middleware.TenantConfig{{Name: testTenant, Token: testToken}}
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	s, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// do sends one request (token "" = unauthenticated, body nil = empty)
// and returns the status and decoded JSON body (nil on no content).
func do(t *testing.T, method, url, token string, body any) (int, map[string]any) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		switch b := body.(type) {
		case string: // raw body for malformed-input tests
			rd = strings.NewReader(b)
		default:
			blob, err := json.Marshal(body)
			if err != nil {
				t.Fatal(err)
			}
			rd = bytes.NewReader(blob)
		}
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) == 0 {
		return resp.StatusCode, nil
	}
	var out map[string]any
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatalf("%s %s: non-JSON response %q", method, url, raw)
	}
	return resp.StatusCode, out
}

// errCode digs the typed error code out of an error envelope.
func errCode(t *testing.T, body map[string]any) string {
	t.Helper()
	e, ok := body["error"].(map[string]any)
	if !ok {
		t.Fatalf("response has no error envelope: %v", body)
	}
	code, _ := e["code"].(string)
	return code
}

func TestAuthRejection(t *testing.T) {
	_, ts := newServer(t, server.Config{})
	for _, tc := range []struct {
		name  string
		token string
	}{
		{"no token", ""},
		{"wrong token", "nope"},
		{"empty bearer", " "},
	} {
		status, body := do(t, "GET", ts.URL+"/v1/sketches", tc.token, nil)
		if status != http.StatusUnauthorized {
			t.Errorf("%s: status %d, want 401", tc.name, status)
		}
		if code := errCode(t, body); code != "unauthorized" {
			t.Errorf("%s: code %q, want unauthorized", tc.name, code)
		}
	}
	// Health and metrics stay open.
	if status, _ := do(t, "GET", ts.URL+"/healthz", "", nil); status != http.StatusOK {
		t.Errorf("healthz: status %d, want 200", status)
	}
}

func TestSketchLifecycle(t *testing.T) {
	_, ts := newServer(t, server.Config{})
	create := map[string]any{"name": "users", "bits": 16, "algorithm": "minimum", "seed": 3}

	status, body := do(t, "POST", ts.URL+"/v1/sketches", testToken, create)
	if status != http.StatusCreated {
		t.Fatalf("create: status %d body %v", status, body)
	}
	sk := body["sketch"].(map[string]any)
	if sk["name"] != "users" || sk["algorithm"] != "minimum" {
		t.Fatalf("create echo: %v", sk)
	}
	if sk["thresh"].(float64) <= 0 || sk["iterations"].(float64) <= 0 {
		t.Fatalf("create should echo resolved parameters: %v", sk)
	}

	// Duplicate create → 409.
	if status, body = do(t, "POST", ts.URL+"/v1/sketches", testToken, create); status != http.StatusConflict {
		t.Fatalf("duplicate create: status %d", status)
	} else if errCode(t, body) != "already_exists" {
		t.Fatalf("duplicate create: %v", body)
	}

	// Ingest + estimate.
	status, body = do(t, "POST", ts.URL+"/v1/sketches/users/add", testToken,
		map[string]any{"elements": []uint64{1, 2, 3, 2, 1}})
	if status != http.StatusOK || body["ingested"].(float64) != 5 {
		t.Fatalf("add: status %d body %v", status, body)
	}
	status, body = do(t, "GET", ts.URL+"/v1/sketches/users/estimate", testToken, nil)
	if status != http.StatusOK {
		t.Fatalf("estimate: status %d", status)
	}
	if est := body["estimate"].(float64); est <= 0 {
		t.Fatalf("estimate %v for non-empty sketch", est)
	}
	if body["cached"].(bool) {
		t.Fatal("first estimate claims to be cached")
	}
	// Second query with no writes rides the version-counter cache.
	_, body = do(t, "GET", ts.URL+"/v1/sketches/users/estimate", testToken, nil)
	if !body["cached"].(bool) {
		t.Fatal("repeat estimate did not hit the cache")
	}

	// List and inspect.
	status, body = do(t, "GET", ts.URL+"/v1/sketches", testToken, nil)
	if status != http.StatusOK || len(body["sketches"].([]any)) != 1 {
		t.Fatalf("list: status %d body %v", status, body)
	}
	status, body = do(t, "GET", ts.URL+"/v1/sketches/users", testToken, nil)
	if status != http.StatusOK || body["sketch"].(map[string]any)["items"].(float64) != 5 {
		t.Fatalf("inspect: status %d body %v", status, body)
	}

	// Delete, then 404 everywhere.
	if status, _ = do(t, "DELETE", ts.URL+"/v1/sketches/users", testToken, nil); status != http.StatusNoContent {
		t.Fatalf("delete: status %d", status)
	}
	for _, probe := range []struct{ method, path string }{
		{"GET", "/v1/sketches/users"},
		{"GET", "/v1/sketches/users/estimate"},
		{"POST", "/v1/sketches/users/snapshot"},
		{"DELETE", "/v1/sketches/users"},
	} {
		var b any
		if probe.method == "POST" {
			b = map[string]any{}
		}
		if status, _ = do(t, probe.method, ts.URL+probe.path, testToken, b); status != http.StatusNotFound {
			t.Errorf("%s %s after delete: status %d, want 404", probe.method, probe.path, status)
		}
	}
}

func TestTenantIsolationAndQuota(t *testing.T) {
	_, ts := newServer(t, server.Config{Tenants: []middleware.TenantConfig{
		{Name: "a", Token: "tok-a", MaxSketches: 2},
		{Name: "b", Token: "tok-b", MaxSketches: 2},
	}})
	mk := func(token, name string) (int, map[string]any) {
		return do(t, "POST", ts.URL+"/v1/sketches", token, map[string]any{"name": name, "bits": 8})
	}
	// Same sketch name under two tenants: no clash.
	if status, _ := mk("tok-a", "s1"); status != http.StatusCreated {
		t.Fatalf("a/s1: %d", status)
	}
	if status, _ := mk("tok-b", "s1"); status != http.StatusCreated {
		t.Fatalf("b/s1: %d", status)
	}
	// Tenant b cannot see or touch tenant a's sketch count.
	if _, body := do(t, "GET", ts.URL+"/v1/sketches", "tok-b", nil); len(body["sketches"].([]any)) != 1 {
		t.Fatalf("tenant b sees foreign sketches: %v", body)
	}

	// Quota: a's second create fine, third → 403 quota_exhausted.
	if status, _ := mk("tok-a", "s2"); status != http.StatusCreated {
		t.Fatalf("a/s2: %d", status)
	}
	status, body := mk("tok-a", "s3")
	if status != http.StatusForbidden || errCode(t, body) != "quota_exhausted" {
		t.Fatalf("quota: status %d body %v", status, body)
	}
	// Deleting frees quota.
	if status, _ := do(t, "DELETE", ts.URL+"/v1/sketches/s2", "tok-a", nil); status != http.StatusNoContent {
		t.Fatalf("delete s2: %d", status)
	}
	if status, _ := mk("tok-a", "s3"); status != http.StatusCreated {
		t.Fatalf("a/s3 after delete: %d", status)
	}
}

// fakeClock is a mutex-guarded test clock: the server goroutine reads it
// while the test advances it.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeClock) read() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
}

func TestRateLimit(t *testing.T) {
	clock := &fakeClock{now: time.Unix(1000, 0)}
	_, ts := newServer(t, server.Config{
		Tenants: []middleware.TenantConfig{{Name: "rl", Token: "tok-rl", RatePerSec: 1, Burst: 2}},
		Now:     clock.read,
	})
	url := ts.URL + "/v1/sketches"
	// Burst of 2 passes, third is limited.
	for i := 0; i < 2; i++ {
		if status, _ := do(t, "GET", url, "tok-rl", nil); status != http.StatusOK {
			t.Fatalf("burst request %d: status %d", i, status)
		}
	}
	status, body := do(t, "GET", url, "tok-rl", nil)
	if status != http.StatusTooManyRequests || errCode(t, body) != "rate_limited" {
		t.Fatalf("rate limit: status %d body %v", status, body)
	}
	// One second later the bucket has refilled one token.
	clock.advance(time.Second)
	if status, _ := do(t, "GET", url, "tok-rl", nil); status != http.StatusOK {
		t.Fatalf("after refill: status %d", status)
	}
	if status, _ := do(t, "GET", url, "tok-rl", nil); status != http.StatusTooManyRequests {
		t.Fatalf("bucket should be empty again: status %d", status)
	}
}

// TestMalformedBodiesNever5xx drives every parsing and validation edge
// with hostile input and demands a typed 4xx — a 5xx would mean bad
// input reached server logic.
func TestMalformedBodiesNever5xx(t *testing.T) {
	_, ts := newServer(t, server.Config{MaxBatch: 4})
	// A healthy sketch for the ingest cases (8-bit universe).
	if status, _ := do(t, "POST", ts.URL+"/v1/sketches", testToken,
		map[string]any{"name": "m", "bits": 8}); status != http.StatusCreated {
		t.Fatal("setup create failed")
	}

	cases := []struct {
		name   string
		method string
		path   string
		body   any // string = raw non-JSON body
		want   int
		code   string
	}{
		{"create invalid JSON", "POST", "/v1/sketches", "{", 400, "bad_request"},
		{"create unknown field", "POST", "/v1/sketches", `{"name":"x","bits":8,"bogus":1}`, 400, "bad_request"},
		{"create trailing garbage", "POST", "/v1/sketches", `{"name":"x","bits":8}{}`, 400, "bad_request"},
		{"create missing name", "POST", "/v1/sketches", map[string]any{"bits": 8}, 400, "invalid_name"},
		{"create traversal name", "POST", "/v1/sketches", map[string]any{"name": "../evil", "bits": 8}, 400, "invalid_name"},
		{"create bits too wide", "POST", "/v1/sketches", map[string]any{"name": "x", "bits": 65}, 400, "invalid_config"},
		{"create unknown algorithm", "POST", "/v1/sketches", map[string]any{"name": "x", "bits": 8, "algorithm": "median"}, 400, "invalid_config"},
		{"create negative epsilon", "POST", "/v1/sketches", map[string]any{"name": "x", "bits": 8, "epsilon": -1}, 400, "invalid_config"},
		{"create delta one", "POST", "/v1/sketches", map[string]any{"name": "x", "bits": 8, "delta": 1.0}, 400, "invalid_config"},
		{"create replicas negative", "POST", "/v1/sketches", map[string]any{"name": "x", "bits": 8, "replicas": -1}, 400, "invalid_config"},
		{"add invalid JSON", "POST", "/v1/sketches/m/add", "not json", 400, "bad_request"},
		{"add elements wrong type", "POST", "/v1/sketches/m/add", `{"elements":"zap"}`, 400, "bad_request"},
		{"add fractional element", "POST", "/v1/sketches/m/add", `{"elements":[1.5]}`, 400, "bad_request"},
		{"add negative element", "POST", "/v1/sketches/m/add", `{"elements":[-1]}`, 400, "bad_request"},
		{"add non-numeric string", "POST", "/v1/sketches/m/add", `{"elements":["ten"]}`, 400, "bad_request"},
		{"add out of range", "POST", "/v1/sketches/m/add", map[string]any{"elements": []uint64{1, 256}}, 400, "element_out_of_range"},
		{"add batch too large", "POST", "/v1/sketches/m/add", map[string]any{"elements": []uint64{1, 2, 3, 4, 5}}, 413, "batch_too_large"},
		{"count bad kind", "POST", "/v1/count", map[string]any{"kind": "qbf", "n": 3, "terms": [][]int{{1}}}, 400, "invalid_formula"},
		{"count zero vars", "POST", "/v1/count", map[string]any{"kind": "dnf", "n": 0, "terms": [][]int{{1}}}, 400, "invalid_formula"},
		{"count empty formula", "POST", "/v1/count", map[string]any{"kind": "dnf", "n": 3}, 400, "invalid_formula"},
		{"count literal out of range", "POST", "/v1/count", map[string]any{"kind": "dnf", "n": 3, "terms": [][]int{{4}}}, 400, "invalid_formula"},
		{"count karpluby on cnf", "POST", "/v1/count", map[string]any{"kind": "cnf", "n": 3, "clauses": [][]int{{1}}, "algorithm": "karpluby"}, 400, "invalid_formula"},
	}
	for _, tc := range cases {
		status, body := do(t, tc.method, ts.URL+tc.path, testToken, tc.body)
		if status >= 500 {
			t.Errorf("%s: got 5xx (%d): %v", tc.name, status, body)
			continue
		}
		if status != tc.want {
			t.Errorf("%s: status %d, want %d (%v)", tc.name, status, tc.want, body)
			continue
		}
		if got := errCode(t, body); got != tc.code {
			t.Errorf("%s: code %q, want %q", tc.name, got, tc.code)
		}
	}

	// The out-of-range rejection was atomic: nothing was ingested.
	_, body := do(t, "GET", ts.URL+"/v1/sketches/m", testToken, nil)
	if items := body["sketch"].(map[string]any)["items"].(float64); items != 0 {
		t.Errorf("rejected batches leaked %v items into the sketch", items)
	}
}

func TestCountEndpointMatchesLibrary(t *testing.T) {
	_, ts := newServer(t, server.Config{})
	status, body := do(t, "POST", ts.URL+"/v1/count", testToken, map[string]any{
		"kind": "dnf", "n": 12, "terms": [][]int{{1, 2}, {-3, 4, 5}, {6}},
		"algorithm": "minimum", "seed": 11,
	})
	if status != http.StatusOK {
		t.Fatalf("count: status %d body %v", status, body)
	}
	got := body["estimate"].(float64)

	ref, err := countDNFRef(12, [][]int{{1, 2}, {-3, 4, 5}, {6}}, 11)
	if err != nil {
		t.Fatal(err)
	}
	if got != ref {
		t.Fatalf("HTTP count %v != library count %v", got, ref)
	}

	// A CNF count exercises the SAT solver and must surface its counters.
	status, body = do(t, "POST", ts.URL+"/v1/count", testToken, map[string]any{
		"kind": "cnf", "n": 6, "clauses": [][]int{{1, 2}, {-1, 3}, {2, -3, 4}, {5, 6}},
		"seed": 5,
	})
	if status != http.StatusOK {
		t.Fatalf("cnf count: status %d body %v", status, body)
	}
	solver := body["solver"].(map[string]any)
	if solver["propagations"].(float64) <= 0 {
		t.Fatalf("cnf count reported no solver work: %v", solver)
	}

	// The /metrics exposition carries the aggregated solver counters.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	text := string(raw)
	for _, want := range []string{
		"f0d_count_requests_total{tenant=\"acme\"} 2",
		"f0d_solver_propagations_total",
		"f0d_http_requests_total",
		"f0d_uptime_seconds",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q:\n%s", want, text)
		}
	}
}

func TestMetricsTrackIngestAndSketches(t *testing.T) {
	_, ts := newServer(t, server.Config{})
	do(t, "POST", ts.URL+"/v1/sketches", testToken, map[string]any{"name": "m1", "bits": 8, "seed": 1})
	do(t, "POST", ts.URL+"/v1/sketches/m1/add", testToken, map[string]any{"elements": []uint64{1, 2, 3}})
	do(t, "GET", ts.URL+"/v1/sketches/m1/estimate", testToken, nil)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	text := string(raw)
	for _, want := range []string{
		`f0d_ingest_elements_total{tenant="acme"} 3`,
		`f0d_estimate_queries_total{tenant="acme"} 1`,
		`f0d_sketches{tenant="acme"} 1`,
		`f0d_sketches_failed{tenant="acme"} 0`,
		fmt.Sprintf("f0d_http_requests_total{code=\"201\",route=%q} 1", "POST /v1/sketches"),
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q:\n%s", want, text)
		}
	}
}
