package handlers

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"mcf0"
)

func TestU64RoundTrip(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want uint64
	}{
		{`0`, 0},
		{`123`, 123},
		{`"123"`, 123},
		{`9007199254740992`, 1 << 53},
		{`"18446744073709551615"`, 1<<64 - 1}, // max uint64 only fits as a string
	} {
		var u U64
		if err := json.Unmarshal([]byte(tc.in), &u); err != nil {
			t.Errorf("Unmarshal(%s): %v", tc.in, err)
			continue
		}
		if uint64(u) != tc.want {
			t.Errorf("Unmarshal(%s) = %d, want %d", tc.in, u, tc.want)
		}
		// Marshal → Unmarshal is the identity regardless of magnitude.
		out, err := json.Marshal(u)
		if err != nil {
			t.Errorf("Marshal(%d): %v", u, err)
			continue
		}
		var back U64
		if err := json.Unmarshal(out, &back); err != nil || back != u {
			t.Errorf("round trip %s → %s → %d (err %v), want %d", tc.in, out, back, err, u)
		}
	}
	// Values past 2^53 marshal as strings so double-based parsers keep
	// full precision.
	out, _ := json.Marshal(U64(1<<53 + 1))
	if out[0] != '"' {
		t.Errorf("U64(2^53+1) marshalled as a bare number: %s", out)
	}

	for _, bad := range []string{`-1`, `1.5`, `"ten"`, `""`, `null`, `"1e3"`, `true`} {
		var u U64
		if err := json.Unmarshal([]byte(bad), &u); err == nil {
			t.Errorf("Unmarshal(%s) accepted, want error", bad)
		}
	}
}

// encoded returns the response body writeJSON writes for v.
func encoded(v any) string {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, v)
	return rec.Body.String()
}

// TestTypedResponsesMatchMaps checks that the add, estimate and count
// routes answer the bytes of the map[string]any bodies they used to
// encode: for values past 2^53 (U64 renders those as strings) and for
// what the live routes answer.
func TestTypedResponsesMatchMaps(t *testing.T) {
	big := U64(1<<53 + 7)
	solver := mcf0.SolverStats{Decisions: 1, Propagations: 2, Conflicts: 3, Learned: 4, Deleted: 5,
		Restarts: 6, LearnedLits: 7, MinimizedLits: 1<<62 + 1}
	for _, tc := range []struct{ typed, old any }{
		{addResp{Ingested: 1024, Items: big, Version: 3},
			map[string]any{"ingested": 1024, "items": big, "version": U64(3)}},
		{estimateResp{Cached: true, Estimate: 1234.5, Items: big, Version: big},
			map[string]any{"estimate": 1234.5, "items": big, "version": big, "cached": true}},
		{estimateResp{Estimate: 1e21, Items: 1 << 53},
			map[string]any{"estimate": 1e21, "items": U64(1 << 53), "version": U64(0), "cached": false}},
		{countResponse(mcf0.CountResult{Estimate: 3.5e15, OracleQueries: 1<<53 + 1, Solver: solver}),
			countMap(mcf0.CountResult{Estimate: 3.5e15, OracleQueries: 1<<53 + 1, Solver: solver})},
	} {
		if got, want := encoded(tc.typed), encoded(tc.old); got != want {
			t.Errorf("typed response %s, map response %s", got, want)
		}
	}

	route := newAddRoute(t)
	api := &API{Registry: route.reg, Metrics: route.met}
	sk, err := route.reg.Get("t", "m")
	if err != nil {
		t.Fatal(err)
	}
	rec := route.serve(api.Add, "POST", "/v1/sketches/m/add", "m", []byte(`{"elements":[1,2,3,2]}`))
	if want := encoded(map[string]any{"ingested": 4, "items": U64(sk.Items()), "version": U64(sk.Version())}); rec.Body.String() != want {
		t.Errorf("add answered %s, the map encodes %s", rec.Body, want)
	}
	est, version, _ := sk.Estimate() // the route's estimate below is then cached
	rec = route.serve(api.Estimate, "GET", "/v1/sketches/m/estimate", "m", nil)
	if want := encoded(map[string]any{"estimate": est, "items": U64(sk.Items()), "version": U64(version), "cached": true}); rec.Body.String() != want {
		t.Errorf("estimate answered %s, the map encodes %s", rec.Body, want)
	}
	res, err := mcf0.CountCNFClauses(6, [][]int{{1, 2}, {-1, 3}, {2, -3, 4}, {5, 6}}, "", mcf0.Config{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	rec = route.serve(api.Count, "POST", "/v1/count", "", []byte(`{"kind":"cnf","n":6,"clauses":[[1,2],[-1,3],[2,-3,4],[5,6]],"seed":5}`))
	if want := encoded(countMap(res)); rec.Body.String() != want {
		t.Errorf("count answered %s, the map encodes %s", rec.Body, want)
	}
}

// countMap is the count response as the route encoded it before
// countResp.
func countMap(res mcf0.CountResult) map[string]any {
	return map[string]any{
		"estimate":       res.Estimate,
		"oracle_queries": res.OracleQueries,
		"solver": map[string]int64{
			"decisions":      res.Solver.Decisions,
			"propagations":   res.Solver.Propagations,
			"conflicts":      res.Solver.Conflicts,
			"learned":        res.Solver.Learned,
			"deleted":        res.Solver.Deleted,
			"restarts":       res.Solver.Restarts,
			"learned_lits":   res.Solver.LearnedLits,
			"minimized_lits": res.Solver.MinimizedLits,
		},
	}
}
