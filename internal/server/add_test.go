package server_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"mcf0/internal/exact"
	"mcf0/internal/formula"
	"mcf0/internal/server"
	"mcf0/internal/server/middleware"
)

func TestTrailingCloserRejected(t *testing.T) {
	_, ts := newServer(t, server.Config{})
	if status, _ := do(t, "POST", ts.URL+"/v1/sketches", testToken,
		map[string]any{"name": "m", "bits": 8}); status != http.StatusCreated {
		t.Fatal("setup create failed")
	}
	for _, tc := range []struct{ name, path, body string }{
		{"create", "/v1/sketches", `{"name":"x","bits":8}}`},
		{"create array closer", "/v1/sketches", `{"name":"x","bits":8}]`},
		{"add", "/v1/sketches/m/add", `{"elements":[1]}]`},
		{"add object closer", "/v1/sketches/m/add", `{"elements":[1]} }`},
		{"count", "/v1/count", `{"kind":"dnf","n":3,"terms":[[1]]}}`},
	} {
		status, body := do(t, "POST", ts.URL+tc.path, testToken, tc.body)
		if status != http.StatusBadRequest || errCode(t, body) != "bad_request" {
			t.Errorf("%s %s: %d %v, want 400 bad_request", tc.name, tc.body, status, body)
		}
	}
	if status, _ := do(t, "GET", ts.URL+"/v1/sketches/x", testToken, nil); status != http.StatusNotFound {
		t.Errorf("a create with a trailing closer made the sketch (GET status %d)", status)
	}
	_, body := do(t, "GET", ts.URL+"/v1/sketches/m", testToken, nil)
	if items := body["sketch"].(map[string]any)["items"].(float64); items != 0 {
		t.Errorf("adds with a trailing closer ingested %v items", items)
	}
}

// TestOverLimitBatchMemoryBounded sends a body of many more elements
// than MaxBatch. The body buffer itself is bounded by MaxBodyBytes; what
// must not grow with the element count is the decoded batch, which used
// to cost 8 bytes per element before the 413.
func TestOverLimitBatchMemoryBounded(t *testing.T) {
	const maxBatch = 4096
	s, err := server.New(server.Config{
		Tenants:  []middleware.TenantConfig{{Name: testTenant, Token: testToken}},
		MaxBatch: maxBatch,
		Logf:     func(string, ...any) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	if w := serveHTTP(h, "/v1/sketches", `{"name":"m","bits":8}`); w.Code != http.StatusCreated {
		t.Fatalf("create: %d %s", w.Code, w.Body)
	}

	body := `{"elements":[` + strings.Repeat("0,", 64*maxBatch) + `0]}`
	for _, tc := range []struct {
		name, body, code string
		status           int
	}{
		{"well-formed", body, "batch_too_large", http.StatusRequestEntityTooLarge},
		{"malformed past the limit", body[:len(body)-2] + ",]}", "bad_request", http.StatusBadRequest},
	} {
		r := httptest.NewRequest("POST", "/v1/sketches/m/add", strings.NewReader(tc.body))
		r.Header.Set("Authorization", "Bearer "+testToken)
		w := httptest.NewRecorder()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		h.ServeHTTP(w, r)
		runtime.ReadMemStats(&m1)
		if w.Code != tc.status || !strings.Contains(w.Body.String(), `"`+tc.code+`"`) {
			t.Fatalf("%s: %d %s, want %d %s", tc.name, w.Code, w.Body, tc.status, tc.code)
		}
		allocated := m1.TotalAlloc - m0.TotalAlloc
		bound := uint64(len(tc.body)) + 4*maxBatch*8 + 64<<10
		if allocated > bound {
			t.Errorf("%s: a %d-byte body of %d elements allocated %d bytes, want ≤ body + 4·MaxBatch·8 + 64 KiB = %d",
				tc.name, len(tc.body), 64*maxBatch+1, allocated, bound)
		}
	}
}

// TestOverSizeFormulaMemoryBounded sends a count body of many more
// clauses than the 2^17-list limit, just under the default 8 MiB body
// limit. What must not grow with the clause count is the decoded
// formula: the scanner stores at most 2^20 literals and 2^17 lists, and
// past that only checks the rest of the body, so even a malformed tail
// is still a 400.
func TestOverSizeFormulaMemoryBounded(t *testing.T) {
	s, err := server.New(server.Config{
		Tenants: []middleware.TenantConfig{{Name: testTenant, Token: testToken}},
		Logf:    func(string, ...any) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	const head, clause = `{"kind":"cnf","n":1,"clauses":[`, `[1],`
	body := head + strings.Repeat(clause, (8<<20-len(head)-8)/len(clause)) + `[1]]}`
	for _, tc := range []struct {
		name, body, code string
		status           int
	}{
		{"well-formed", body, "formula_too_large", http.StatusRequestEntityTooLarge},
		{"malformed past the limit", body[:len(body)-2] + ",]}", "bad_request", http.StatusBadRequest},
	} {
		r := httptest.NewRequest("POST", "/v1/count", strings.NewReader(tc.body))
		r.Header.Set("Authorization", "Bearer "+testToken)
		w := httptest.NewRecorder()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		h.ServeHTTP(w, r)
		runtime.ReadMemStats(&m1)
		if w.Code != tc.status || !strings.Contains(w.Body.String(), `"`+tc.code+`"`) {
			t.Fatalf("%s: %d %s, want %d %s", tc.name, w.Code, w.Body, tc.status, tc.code)
		}
		allocated := m1.TotalAlloc - m0.TotalAlloc
		bound := uint64(len(tc.body)) + 1<<20*8 + 1<<17*24 + 64<<10
		if allocated > bound {
			t.Errorf("%s: a %d-byte body of %d clauses allocated %d bytes, want ≤ body + 2^20·8 + 2^17·24 + 64 KiB = %d",
				tc.name, len(tc.body), strings.Count(tc.body, "[1]"), allocated, bound)
		}
		t.Logf("%s: %d-byte body, %d bytes allocated", tc.name, len(tc.body), allocated)
	}
}

// BenchmarkCountHandler measures the serve path of one count request —
// body read, decode, counting, response — in process, on the perfbench
// count shape (countBodies), counted with bucketing.
func BenchmarkCountHandler(b *testing.B) {
	h, bodies := countHandler(b), countBodies(b)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if w := serveHTTP(h, "/v1/count", bodies[i%len(bodies)]); w.Code != http.StatusOK {
			b.Fatalf("count: %d %s", w.Code, w.Body)
		}
	}
}

// TestCountHandlerAllocs guards what one count request allocates on the
// perfbench shape: the solution pool's models are carved from word slabs,
// each Toeplitz draw is two allocations and the formula's literals one,
// so a count allocates about 380 objects. It allocated 1,180 when every
// model, draw part and clause was its own object.
func TestCountHandlerAllocs(t *testing.T) {
	h, bodies := countHandler(t), countBodies(t)
	k := 0
	allocs := testing.AllocsPerRun(50, func() {
		if w := serveHTTP(h, "/v1/count", bodies[k%len(bodies)]); w.Code != http.StatusOK {
			t.Fatalf("count: %d %s", w.Code, w.Body)
		}
		k++
	})
	if allocs > 600 {
		t.Errorf("%.0f allocations per count request, want ≤ 600", allocs)
	}
	t.Logf("%.0f allocations per count request", allocs)
}

// countHandler is a server's handler with the test tenant.
func countHandler(tb testing.TB) http.Handler {
	s, err := server.New(server.Config{
		Tenants: []middleware.TenantConfig{{Name: testTenant, Token: testToken}},
		Logf:    func(string, ...any) {},
	})
	if err != nil {
		tb.Fatal(err)
	}
	return s.Handler()
}

// countBodies returns the perfbench count shape as request bodies: 25
// random 3-CNF formulas of 62 clauses over 20 variables, kept when they
// have 230 to 270 models (so each count costs about the same), counted
// with bucketing.
func countBodies(tb testing.TB) []string {
	r := rand.New(rand.NewSource(1))
	var bodies []string
	for len(bodies) < 25 {
		clauses := make([][]int, 62)
		cnf := formula.NewCNF(20)
		for c := range clauses {
			var lits formula.Clause
			for range 3 {
				v := 1 + r.Intn(20)
				lits = append(lits, formula.Lit{Var: v - 1, Neg: r.Intn(2) == 0})
				if lits[len(lits)-1].Neg {
					v = -v
				}
				clauses[c] = append(clauses[c], v)
			}
			cnf.AddClause(lits)
		}
		if m := exact.CountCNF(cnf); m < 230 || m > 270 {
			continue
		}
		body, err := json.Marshal(map[string]any{
			"kind": "cnf", "n": 20, "clauses": clauses, "algorithm": "bucketing", "seed": r.Uint64() | 1,
		})
		if err != nil {
			tb.Fatal(err)
		}
		bodies = append(bodies, string(body))
	}
	return bodies
}

// BenchmarkAddHandler measures the serve path of one add request — body
// read, decode, universe check, concurrent-front absorb, response —
// in process, on 1024-element Zipf batches into 32-bit sketches.
func BenchmarkAddHandler(b *testing.B) {
	s, err := server.New(server.Config{
		Tenants: []middleware.TenantConfig{{Name: testTenant, Token: testToken}},
		Logf:    func(string, ...any) {},
	})
	if err != nil {
		b.Fatal(err)
	}
	h := s.Handler()
	r := rand.New(rand.NewSource(1))
	zipf := rand.NewZipf(r, 1.1, 1, 1<<32-1)
	bodies := make([][]byte, 64)
	for i := range bodies {
		var sb bytes.Buffer
		sb.WriteString(`{"elements":[`)
		for j := 0; j < 1024; j++ {
			if j > 0 {
				sb.WriteByte(',')
			}
			sb.WriteString(strconv.FormatUint(zipf.Uint64(), 10))
		}
		sb.WriteString(`]}`)
		bodies[i] = sb.Bytes()
	}
	for _, alg := range []string{"bucketing", "minimum"} {
		create := fmt.Sprintf(`{"name":%q,"bits":32,"algorithm":%q}`, alg, alg)
		if w := serveHTTP(h, "/v1/sketches", create); w.Code != http.StatusCreated {
			b.Fatalf("create %s: %d %s", alg, w.Code, w.Body)
		}
		b.Run(alg, func(b *testing.B) {
			b.ReportAllocs()
			path := "/v1/sketches/" + alg + "/add"
			for i := 0; i < b.N; i++ {
				req := httptest.NewRequest("POST", path, bytes.NewReader(bodies[i%len(bodies)]))
				req.Header.Set("Authorization", "Bearer "+testToken)
				w := httptest.NewRecorder()
				h.ServeHTTP(w, req)
				if w.Code != http.StatusOK {
					b.Fatalf("add: %d %s", w.Code, w.Body)
				}
			}
		})
	}
}

// serveHTTP runs one authenticated POST through h in process.
func serveHTTP(h http.Handler, path, body string) *httptest.ResponseRecorder {
	r := httptest.NewRequest("POST", path, strings.NewReader(body))
	r.Header.Set("Authorization", "Bearer "+testToken)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	return w
}

// An add whose elements the sketch already holds changes no sketch state
// (the batch conversion drops them as cached), yet it is a completed
// write: the route's version rises on it as on any add. Two sketches of
// one configuration never share that cache, so the same add reaches
// both and they estimate alike.
func TestAddVersionCountsCachedAdds(t *testing.T) {
	_, ts := newServer(t, server.Config{})
	elements := make([]uint64, 200)
	for i := range elements {
		elements[i] = uint64(i * 7919 % 65536)
	}
	add := func(name string) float64 {
		t.Helper()
		status, body := do(t, "POST", ts.URL+"/v1/sketches/"+name+"/add", testToken, map[string]any{"elements": elements})
		if status != http.StatusOK {
			t.Fatalf("add to %s: %d %v", name, status, body)
		}
		return body["version"].(float64)
	}
	estimate := func(name string) float64 {
		t.Helper()
		status, body := do(t, "GET", ts.URL+"/v1/sketches/"+name+"/estimate", testToken, nil)
		if status != http.StatusOK {
			t.Fatalf("estimate %s: %d %v", name, status, body)
		}
		return body["estimate"].(float64)
	}
	for _, name := range []string{"a", "b"} {
		if status, body := do(t, "POST", ts.URL+"/v1/sketches", testToken,
			map[string]any{"name": name, "bits": 16, "seed": 5, "replicas": 2}); status != http.StatusCreated {
			t.Fatalf("create %s: %d %v", name, status, body)
		}
	}
	v1 := add("a")
	est := estimate("a")
	if est <= 0 {
		t.Fatalf("estimate %v after adding %d elements", est, len(elements))
	}
	if v2 := add("a"); v2 != v1+1 {
		t.Errorf("version %v after an add of cached elements at version %v, want %v", v2, v1, v1+1)
	}
	if got := estimate("a"); got != est {
		t.Errorf("an add of cached elements moved the estimate from %v to %v", est, got)
	}
	add("b")
	if got := estimate("b"); got != est {
		t.Errorf("a second sketch given the same elements estimates %v, the first %v", got, est)
	}
}
