package handlers

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"mcf0"
)

func countRequest(body []byte) *http.Request {
	r := httptest.NewRequest("POST", "/v1/count", bytes.NewReader(body))
	r.Header.Set("Authorization", "Bearer tok")
	return r
}

// TestCountDocumented runs the docs/API.md /v1/count example request
// through the authenticated Count route and checks that the response is
// the one the document shows, field for field.
func TestCountDocumented(t *testing.T) {
	raw, err := os.ReadFile("../../../docs/API.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(raw), "### `POST /v1/count`")
	if !ok {
		t.Fatal("docs/API.md has no POST /v1/count section")
	}
	section, _, _ = strings.Cut(section, "\n### ")
	req := regexp.MustCompile(`-d '([^']*)'`).FindStringSubmatch(section)
	resp := regexp.MustCompile("(?s)```json\n(.*?)```").FindStringSubmatch(section)
	if req == nil || resp == nil {
		t.Fatal("the /v1/count section needs a curl -d '…' request and a json response block")
	}
	var want map[string]any
	if err := json.Unmarshal([]byte(resp[1]), &want); err != nil {
		t.Fatalf("documented response: %v", err)
	}

	route := newAddRoute(t)
	api := &API{Registry: route.reg, Metrics: route.met}
	rec := httptest.NewRecorder()
	route.auth.Wrap(http.HandlerFunc(api.Count)).ServeHTTP(rec, countRequest([]byte(req[1])))
	var got map[string]any
	if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &got) != nil {
		t.Fatalf("documented request answered %d: %s", rec.Code, rec.Body)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("documented request returns\n%s\nbut docs/API.md shows\n%s", rec.Body, resp[1])
	}
}

// countBodyCases seed FuzzCountBody: accepted CNF and DNF bodies for each
// algorithm, each side of the config bounds, bad literals and malformed
// JSON.
var countBodyCases = []string{
	`{"kind":"cnf","n":6,"clauses":[[1,2],[-1,3],[2,-3,4],[5,6]],"seed":5,"thresh":8,"iterations":5}`,
	`{"kind":"cnf","n":10,"clauses":[[1,2,3],[-4,5,-6],[7,-8,9],[-10,1,-2]],"thresh":12,"iterations":9,"parallelism":2}`,
	`{"kind":"CNF","n":4,"clauses":[[1],[-1]],"thresh":4,"iterations":3}`,
	`{"kind":"cnf","n":4,"clauses":[[1,-1],[2,2]],"thresh":4,"iterations":3,"seed":"18446744073709551615"}`,
	`{"kind":"cnf","n":8,"clauses":[[1,2],[3,4]],"algorithm":"minimum","thresh":6,"iterations":3}`,
	`{"kind":"cnf","n":8,"clauses":[[1,2],[3,4]],"algorithm":"estimation","thresh":6,"iterations":3}`,
	`{"kind":"cnf","n":8,"clauses":[[1,2],[3,4]],"algorithm":"karpluby","thresh":6,"iterations":3}`,
	`{"kind":"cnf","n":8,"clauses":[[1,2],[3,4]],"epsilon":2,"delta":0.9}`,
	`{"kind":"dnf","n":6,"terms":[[1,2],[-3]],"thresh":8,"iterations":5}`,
	`{"kind":"dnf","n":6,"terms":[[1,-1],[2]],"algorithm":"karpluby","thresh":8,"iterations":5}`,
	`{"kind":"dnf","n":6,"terms":[[1,2],[-3]],"algorithm":"minimum","thresh":8,"iterations":5}`,
	`{"kind":"cnf","n":6,"clauses":[[0]],"thresh":4,"iterations":3}`,
	`{"kind":"cnf","n":6,"clauses":[[7]],"thresh":4,"iterations":3}`,
	`{"kind":"cnf","n":6,"clauses":[[-9223372036854775808]],"thresh":4,"iterations":3}`,
	`{"kind":"cnf","n":6,"clauses":[[]],"thresh":4,"iterations":3}`,
	`{"kind":"cnf","n":6,"clauses":[],"thresh":4,"iterations":3}`,
	`{"kind":"cnf","n":0,"clauses":[[1]],"thresh":4,"iterations":3}`,
	`{"kind":"cnf","n":6,"clauses":[[1]],"thresh":-1,"iterations":3}`,
	`{"kind":"cnf","n":6,"clauses":[[1]],"delta":1,"thresh":4,"iterations":3}`,
	`{"kind":"cnf","n":6,"clauses":[[1]],"epsilon":-1,"thresh":4,"iterations":3}`,
	`{"kind":"cnf","n":6,"clauses":[[1]],"thresh":4,"iterations":-3}`,
	`{"kind":"cnf","n":4097,"clauses":[[1]],"thresh":4,"iterations":3}`,
	`{"kind":"cnf","n":6,"clauses":[[1]],"parallelism":-1,"thresh":4,"iterations":3}`,
	`{"kind":"xnf","n":6,"clauses":[[1]],"thresh":4,"iterations":3}`,
	`{"kind":"cnf","n":6,"clauses":[[1]],"algorithm":"bogus","thresh":4,"iterations":3}`,
	`{"kind":"cnf","n":6,"clauses":[[1]],"bogus":1,"thresh":4,"iterations":3}`,
	`{"kind":"cnf","n":6,"clauses":[[1]],"thresh":4,"iterations":3}}`,
	`{"kind":"cnf","n":6,"clauses":[[1.5]]}`,
	`null`,
	``,
}

// Caps on the work one fuzz input may ask for: bodies above them are
// skipped, so every input costs at most a few milliseconds.
const (
	fuzzCountMaxVars       = 12
	fuzzCountMaxThresh     = 32
	fuzzCountMaxIterations = 9
)

// FuzzCountBody drives POST /v1/count through the authenticated route:
// no input may panic or answer 5xx, and an accepted CNF body must return
// the estimate and oracle meter of an in-process count at parallelism 1
// and 2.
func FuzzCountBody(f *testing.F) {
	for _, body := range countBodyCases {
		f.Add([]byte(body))
	}
	route := newAddRoute(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		var req countReq
		if json.Unmarshal(body, &req) == nil {
			// n out of range and negative values are rejected before any
			// work; zero resolves to the paper's constants, as the route
			// resolves it.
			cfg := mcf0.Config{Epsilon: req.Epsilon, Delta: req.Delta, Thresh: req.Thresh,
				Iterations: req.Iterations}.Resolved()
			if req.N >= 1 && req.N <= (&API{}).maxCountVars() && (req.N > fuzzCountMaxVars ||
				req.Thresh >= 0 && cfg.Thresh > fuzzCountMaxThresh ||
				req.Iterations >= 0 && cfg.Iterations > fuzzCountMaxIterations) {
				t.Skip("asks for more work than the fuzz caps allow")
			}
		}
		api := &API{Registry: route.reg, Metrics: route.met}
		rec := httptest.NewRecorder()
		route.auth.Wrap(http.HandlerFunc(api.Count)).ServeHTTP(rec, countRequest(body))
		if rec.Code >= 500 {
			t.Fatalf("body %q: Count answered %d: %s", body, rec.Code, rec.Body)
		}
		if rec.Code != http.StatusOK || !strings.EqualFold(req.Kind, "cnf") {
			return
		}
		var got struct {
			Estimate      float64 `json:"estimate"`
			OracleQueries int64   `json:"oracle_queries"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
			t.Fatalf("body %q: response %s: %v", body, rec.Body, err)
		}
		for _, par := range []int{1, 2} {
			cfg := mcf0.Config{Epsilon: req.Epsilon, Delta: req.Delta, Thresh: req.Thresh,
				Iterations: req.Iterations, Seed: uint64(req.Seed), Parallelism: par}
			want, err := mcf0.CountCNFClauses(req.N, req.Clauses, mcf0.Algorithm(strings.ToLower(req.Algorithm)), cfg)
			if err != nil || want.Estimate != got.Estimate || want.OracleQueries != got.OracleQueries {
				t.Fatalf("body %q: route %+v, in-process at parallelism %d %+v (%v)", body, got, par, want, err)
			}
		}
	})
}
