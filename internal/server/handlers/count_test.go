package handlers

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"regexp"
	"slices"
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

// countBodyCases are the count body's edge cases: accepted CNF and DNF
// bodies for each algorithm, each side of the config bounds, bad
// literals, each side of every encoding/json quirk the scanner copies
// and bodies cut by the size limit. They seed FuzzCountBody.
var countBodyCases = []struct {
	body  string
	limit int64 // MaxBodyBytes (0 = default)
}{
	{body: `{"kind":"cnf","n":6,"clauses":[[1,2],[-1,3],[2,-3,4],[5,6]],"seed":5,"thresh":8,"iterations":5}`},
	{body: `{"kind":"cnf","n":10,"clauses":[[1,2,3],[-4,5,-6],[7,-8,9],[-10,1,-2]],"thresh":12,"iterations":9,"parallelism":2}`},
	{body: `{"kind":"CNF","n":4,"clauses":[[1],[-1]],"thresh":4,"iterations":3}`},
	{body: `{"kind":"cnf","n":4,"clauses":[[1,-1],[2,2]],"thresh":4,"iterations":3,"seed":"18446744073709551615"}`},
	{body: `{"kind":"cnf","n":8,"clauses":[[1,2],[3,4]],"algorithm":"minimum","thresh":6,"iterations":3}`},
	{body: `{"kind":"cnf","n":8,"clauses":[[1,2],[3,4]],"algorithm":"estimation","thresh":6,"iterations":3}`},
	{body: `{"kind":"cnf","n":8,"clauses":[[1,2],[3,4]],"algorithm":"karpluby","thresh":6,"iterations":3}`},
	{body: `{"kind":"cnf","n":8,"clauses":[[1,2],[3,4]],"epsilon":2,"delta":0.9}`},
	{body: `{"kind":"dnf","n":6,"terms":[[1,2],[-3]],"thresh":8,"iterations":5}`},
	{body: `{"kind":"dnf","n":6,"terms":[[1,-1],[2]],"algorithm":"karpluby","thresh":8,"iterations":5}`},
	{body: `{"kind":"dnf","n":6,"terms":[[1,2],[-3]],"algorithm":"minimum","thresh":8,"iterations":5}`},
	{body: `{"kind":"cnf","n":6,"clauses":[[0]],"thresh":4,"iterations":3}`},
	{body: `{"kind":"cnf","n":6,"clauses":[[7]],"thresh":4,"iterations":3}`},
	{body: `{"kind":"cnf","n":6,"clauses":[[-9223372036854775808]],"thresh":4,"iterations":3}`},
	{body: `{"kind":"cnf","n":6,"clauses":[[]],"thresh":4,"iterations":3}`},
	{body: `{"kind":"cnf","n":6,"clauses":[],"thresh":4,"iterations":3}`},
	{body: `{"kind":"cnf","n":0,"clauses":[[1]],"thresh":4,"iterations":3}`},
	{body: `{"kind":"cnf","n":6,"clauses":[[1]],"thresh":-1,"iterations":3}`},
	{body: `{"kind":"cnf","n":6,"clauses":[[1]],"delta":1,"thresh":4,"iterations":3}`},
	{body: `{"kind":"cnf","n":6,"clauses":[[1]],"epsilon":-1,"thresh":4,"iterations":3}`},
	{body: `{"kind":"cnf","n":6,"clauses":[[1]],"thresh":4,"iterations":-3}`},
	{body: `{"kind":"cnf","n":4097,"clauses":[[1]],"thresh":4,"iterations":3}`},
	{body: `{"kind":"cnf","n":6,"clauses":[[1]],"parallelism":-1,"thresh":4,"iterations":3}`},
	{body: `{"kind":"xnf","n":6,"clauses":[[1]],"thresh":4,"iterations":3}`},
	{body: `{"kind":"cnf","n":6,"clauses":[[1]],"algorithm":"bogus","thresh":4,"iterations":3}`},
	{body: `{"kind":"cnf","n":6,"clauses":[[1]],"bogus":1,"thresh":4,"iterations":3}`},
	{body: `{"kind":"cnf","n":6,"clauses":[[1]],"thresh":4,"iterations":3}}`},
	{body: `{"kind":"cnf","n":6,"clauses":[[1.5]]}`},
	{body: `null`},
	{body: ``},
	// Estimation with a thresh so small every hash hits: the estimate
	// is +Inf, which JSON cannot carry.
	{body: `{"kind":"cnf","n":8,"clauses":[[1,2]],"algorithm":"estimation","thresh":2,"iterations":2}`},
	// Keys: escaped, case-folded, Unicode folds (Kelvin sign, long s).
	{body: `{"\u006bind":"cnf","n":4,"clauses":[[1]],"thresh":4,"iterations":3}`},
	{body: `{"KIND":"cnf","N":4,"Clauses":[[1]],"THRESH":4,"Iterations":3}`},
	{body: `{"\u212aind":"cnf","n":4,"clauses":[[1]],"thresh":4,"iterations":3,"\u017feed":9}`},
	{body: `{"kind":"cnf","n":4,"cl\u0061uses":[[1]],"thresh":4,"iterations":3}`},
	{body: `{"kind":"cnf","n":4,"clauses":[[1]],"thresh":4,"iterations":3,"\ud800":1}`},
	{body: `{"kind":"cnf","n":4,"clauses":[[1]],"thresh":4,"iterations":3,"k\u0000ind":1}`},
	// null in each field: a scalar keeps its value, a list empties,
	// and seed refuses it.
	{body: `{"kind":null,"n":4,"clauses":[[1]],"thresh":4,"iterations":3}`},
	{body: `{"kind":"cnf","kind":null,"n":4,"clauses":[[1]],"thresh":4,"iterations":3}`},
	{body: `{"kind":"cnf","n":4,"n":null,"clauses":[[1]],"thresh":4,"iterations":3}`},
	{body: `{"kind":"cnf","n":4,"clauses":null,"thresh":4,"iterations":3}`},
	{body: `{"kind":"cnf","n":4,"clauses":[[1]],"clauses":null,"thresh":4,"iterations":3}`},
	{body: `{"kind":"dnf","n":4,"terms":[[1]],"terms":null,"thresh":4,"iterations":3}`},
	{body: `{"kind":"cnf","n":4,"clauses":[[1]],"algorithm":null,"thresh":4,"iterations":3}`},
	{body: `{"kind":"cnf","n":4,"clauses":[[1]],"epsilon":null,"delta":null,"thresh":4,"iterations":3}`},
	{body: `{"kind":"cnf","n":4,"clauses":[[1]],"thresh":4,"thresh":null,"iterations":3,"iterations":null}`},
	{body: `{"kind":"cnf","n":4,"clauses":[[1]],"thresh":4,"iterations":3,"seed":null}`},
	{body: `{"kind":"cnf","n":4,"clauses":[[1]],"thresh":4,"iterations":3,"parallelism":null}`},
	{body: `{"kind":"cnf","n":4,"clauses":[[1],null],"thresh":4,"iterations":3}`},
	{body: `{"kind":"cnf","n":4,"clauses":[[1,null]],"thresh":4,"iterations":3}`},
	// Repeated keys: the last wins, decoded into what the earlier
	// copies left, so a null literal reads the old value.
	{body: `{"kind":"cnf","n":3,"n":4,"clauses":[[1,2]],"clauses":[[3]],"thresh":4,"iterations":3}`},
	{body: `{"kind":"cnf","n":4,"clauses":[[1,2,3]],"clauses":[[4]],"clauses":[[-1,null,null]],"thresh":4,"iterations":3}`},
	{body: `{"kind":"cnf","n":4,"clauses":[[1],[2]],"clauses":[[3]],"clauses":[[4],[null]],"thresh":4,"iterations":3}`},
	{body: `{"kind":"cnf","n":4,"clauses":[[1,2]],"clauses":[],"clauses":[[null]],"thresh":4,"iterations":3}`},
	{body: `{"kind":"cnf","n":4,"clauses":[[1,2]],"clauses":null,"clauses":[[null,3]],"thresh":4,"iterations":3}`},
	{body: `{"kind":"cnf","n":4,"clauses":[[1,2]],"clauses":[null],"clauses":[[null]],"thresh":4,"iterations":3}`},
	{body: `{"kind":"cnf","n":4,"clauses":[[2]],"clauses":[[]],"clauses":[[null]],"thresh":4,"iterations":3}`},
	{body: `{"kind":"cnf","n":4,"clauses":[[1],[2,3]],"terms":[[1]],"clauses":[[null,null],[null,null,null]],"thresh":4,"iterations":3}`},
	{body: `{"kind":"cnf","n":4,"clauses":[[1]],"thresh":4,"iterations":3,"seed":1,"seed":"2"}`},
	// Numbers: int fields take what strconv.ParseInt takes at the int
	// size (2147483648 overflows a 32-bit int), floats what ParseFloat
	// takes.
	{body: `{"kind":"cnf","n":6,"clauses":[[1.0]],"thresh":4,"iterations":3}`},
	{body: `{"kind":"cnf","n":6,"clauses":[[1e2]],"thresh":4,"iterations":3}`},
	{body: `{"kind":"cnf","n":6,"clauses":[[9223372036854775808]],"thresh":4,"iterations":3}`},
	{body: `{"kind":"cnf","n":6,"clauses":[[-9223372036854775809]],"thresh":4,"iterations":3}`},
	{body: `{"kind":"cnf","n":6,"clauses":[[2147483648]],"thresh":4,"iterations":3}`},
	{body: `{"kind":"cnf","n":6,"clauses":[[-2147483648,-0]],"thresh":4,"iterations":3}`},
	{body: `{"kind":"cnf","n":2147483648,"clauses":[[1]],"thresh":4,"iterations":3}`},
	{body: `{"kind":"cnf","n":4,"clauses":[[1]],"thresh":4.0,"iterations":3}`},
	{body: `{"kind":"cnf","n":4,"clauses":[[1]],"thresh":4,"iterations":3,"epsilon":1e400}`},
	{body: `{"kind":"cnf","n":4,"clauses":[[1]],"thresh":4,"iterations":3,"epsilon":1e-400,"delta":-0}`},
	{body: `{"kind":"cnf","n":4,"clauses":[[1]],"thresh":4,"iterations":3,"delta":"0.5"}`},
	{body: `{"kind":"cnf","n":4,"clauses":[[1]],"thresh":4,"iterations":3,"epsilon":0.5E+1}`},
	// Seeds follow U64.UnmarshalJSON: digits, bare or quoted.
	{body: `{"kind":"cnf","n":4,"clauses":[[1]],"thresh":4,"iterations":3,"seed":"7"}`},
	{body: `{"kind":"cnf","n":4,"clauses":[[1]],"thresh":4,"iterations":3,"seed":"\u0037"}`},
	{body: `{"kind":"cnf","n":4,"clauses":[[1]],"thresh":4,"iterations":3,"seed":"-1"}`},
	{body: `{"kind":"cnf","n":4,"clauses":[[1]],"thresh":4,"iterations":3,"seed":18446744073709551616}`},
	{body: `{"kind":"cnf","n":4,"clauses":[[1]],"thresh":4,"iterations":3,"seed":7.0}`},
	{body: `{"kind":"cnf","n":4,"clauses":[[1]],"thresh":4,"iterations":3,"seed":[7]}`},
	// Strings: escapes resolved, invalid UTF-8 and lone surrogates
	// replaced.
	{body: `{"kind":"c\u006ef","n":4,"clauses":[[1]],"thresh":4,"iterations":3}`},
	{body: `{"kind":"cnf","n":4,"clauses":[[1]],"thresh":4,"iterations":3,"algorithm":"MINIMUM"}`},
	{body: `{"kind":"cnf","n":4,"clauses":[[1]],"thresh":4,"iterations":3,"algorithm":"x\ud800\u0041\ud83d\ude00\/\t"}`},
	{body: "{\"kind\":\"cnf\",\"n\":4,\"clauses\":[[1]],\"thresh\":4,\"iterations\":3,\"algorithm\":\"\xffmin\"}"},
	// Values of the wrong type.
	{body: `{"kind":1,"n":4,"clauses":[[1]],"thresh":4,"iterations":3}`},
	{body: `{"kind":["cnf"],"n":4,"clauses":[[1]],"thresh":4,"iterations":3}`},
	{body: `{"kind":"cnf","n":"4","clauses":[[1]],"thresh":4,"iterations":3}`},
	{body: `{"kind":"cnf","n":true,"clauses":[[1]],"thresh":4,"iterations":3}`},
	{body: `{"kind":"cnf","n":4,"clauses":{},"thresh":4,"iterations":3}`},
	{body: `{"kind":"cnf","n":4,"clauses":"x","thresh":4,"iterations":3}`},
	{body: `{"kind":"cnf","n":4,"clauses":[1],"thresh":4,"iterations":3}`},
	{body: `{"kind":"cnf","n":4,"clauses":[["1"]],"thresh":4,"iterations":3}`},
	{body: `{"kind":"cnf","n":4,"clauses":[[true]],"thresh":4,"iterations":3}`},
	{body: `{"kind":"cnf","n":4,"clauses":[[[1]]],"thresh":4,"iterations":3}`},
	{body: `{"kind":"cnf","n":4,"clauses":[[1]],"terms":[[{}]],"thresh":4,"iterations":3}`},
	// Syntax and trailing data.
	{body: `{"kind":"cnf","n":4,"clauses":[[1,]],"thresh":4,"iterations":3}`},
	{body: `{"kind":"cnf","n":4,"clauses":[[1] [2]],"thresh":4,"iterations":3}`},
	{body: `{"kind":"cnf","n":4,"clauses":[[01]],"thresh":4,"iterations":3}`},
	{body: `{"kind":"cnf","n":4,"clauses":[[-]],"thresh":4,"iterations":3}`},
	{body: ` { "kind" : "cnf" , "n" : 4 , "clauses" : [ [ 1 , -2 ] , [ 3 ] ] , "thresh" : 4 , "iterations" : 3 } `},
	{body: `{"kind":"cnf","n":4,"clauses":[[1]],"thresh":4,"iterations":3}x`},
	{body: `{"kind":"cnf","n":4,"clauses":[[1]],"thresh":4,"iterations":3} 2`},
	{body: `{"kind":"cnf","n":4,"clauses":[[1]],"thresh":4,"iterations":3}]`},
	{body: `{"kind":"cnf","n":4,"clauses":[[1]],"thresh":4,"iterations":3`},
	{body: `[{"kind":"cnf"}]`},
	// Cut by the body limit: past it the decode needs more bytes (413)
	// unless a syntax error comes first (400).
	{body: `{"kind":"cnf","n":4,"clauses":[[1,2],[3]]}`, limit: 42},
	{body: `{"kind":"cnf","n":4,"clauses":[[1,2],[3]]}`, limit: 41},
	{body: `{"kind":"cnf","n":4,"clauses":[[1,2],[3]]}`, limit: 30},
	{body: `{"kind":"cnf","n":4,"clauses":[[1,2],[3]]}`, limit: 12},
	{body: `{"kind":"cnf","n":4,"clauses":[[1,],[3,4,5,6,7,8,9]]}`, limit: 34},
	{body: `{"kind":"cnf","n":4,"clauses":[[1]]}  x`, limit: 37},
	{body: `{"kind":"cnf","n":4,"clauses":[[1]]} 12`, limit: 37},
	{body: `{"kind":"cnf","n":4,"clauses":[["x"],[1,2,3,4]]}`, limit: 40},
}

// Caps on the work one fuzz input may ask for: bodies above them are
// not counted, so every input costs at most a few milliseconds.
const (
	fuzzCountMaxVars       = 12
	fuzzCountMaxThresh     = 32
	fuzzCountMaxIterations = 9
)

func TestCountBodyMatchesReference(t *testing.T) {
	route := newAddRoute(t)
	for _, tc := range countBodyCases {
		checkCountBody(t, route, []byte(tc.body), tc.limit)
	}
}

// TestCountFieldsMatchRequest checks the scanner's field table against
// the json tags of countReq, the type the reference decodes into.
func TestCountFieldsMatchRequest(t *testing.T) {
	typ := reflect.TypeFor[countReq]()
	var tags []string
	for i := range typ.NumField() {
		tags = append(tags, typ.Field(i).Tag.Get("json"))
	}
	if !slices.Equal(tags, countFields) || len(countWants) != len(countFields) {
		t.Errorf("countReq's json tags %q, field table %q with %d wants", tags, countFields, len(countWants))
	}
}

// TestCountRepeatedKeyStorage pins where the scanner parts from
// encoding/json on purpose: the copies of a repeated list key are
// stored next to each other while the later one is scanned, so together
// they count against the storage bound. A key whose last copy alone
// fits, after an earlier copy that filled the bound, is a 413; one that
// is null or [] in between starts afresh.
func TestCountRepeatedKeyStorage(t *testing.T) {
	big := `[` + strings.Repeat(`[1],`, maxLists-1) + `[1]]`
	route := newAddRoute(t)
	api := &API{Registry: route.reg, Metrics: route.met}
	for _, tc := range []struct {
		between string
		status  int
	}{
		{`,"clauses":[[1],[2]]`, http.StatusRequestEntityTooLarge},
		{`,"clauses":null,"clauses":[[1],[2]]`, http.StatusOK},
		{`,"clauses":[],"clauses":[[1],[2]]`, http.StatusOK},
	} {
		body := `{"kind":"cnf","n":2,"thresh":4,"iterations":3,"clauses":` + big + tc.between + `}`
		rec := route.serve(api.Count, "POST", "/v1/count", "", []byte(body))
		if rec.Code != tc.status {
			t.Errorf("copy of %d lists then %s: %d %s, want %d", maxLists, tc.between, rec.Code, rec.Body, tc.status)
		}
	}
}

// FuzzCountBody runs the count-body scanner against the encoding/json
// reference — accept/reject, status, error code and every decoded field
// — and drives the real Count route, which must never answer 5xx; an
// accepted CNF body must return the estimate and oracle meter of an
// in-process count at parallelism 1 and 2.
func FuzzCountBody(f *testing.F) {
	for _, tc := range countBodyCases {
		f.Add([]byte(tc.body), uint16(tc.limit))
	}
	route := newAddRoute(f)
	f.Fuzz(func(t *testing.T, body []byte, limit uint16) {
		req, ok := checkCountBody(t, route, body, int64(limit))
		if ok {
			// n out of range and negative values are rejected before any
			// work; zero resolves to the paper's constants, as the route
			// resolves it.
			cfg := mcf0.Config{Epsilon: req.Epsilon, Delta: req.Delta, Thresh: req.Thresh,
				Iterations: req.Iterations}.Resolved()
			if req.N >= 1 && req.N <= (&API{}).maxCountVars() && (req.N > fuzzCountMaxVars ||
				req.Thresh >= 0 && cfg.Thresh > fuzzCountMaxThresh ||
				req.Iterations >= 0 && cfg.Iterations > fuzzCountMaxIterations) {
				return // asks for more work than the fuzz caps allow
			}
		}
		api := &API{Registry: route.reg, Metrics: route.met, MaxBodyBytes: int64(limit)}
		rec := route.serve(api.Count, "POST", "/v1/count", "", body)
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

// checkCountBody compares decodeCount against decodeBody(&countReq) —
// accept/reject, status and error code, every field, and the storage
// bound against the reference's list sizes — and returns the
// reference's request and verdict.
func checkCountBody(t *testing.T, route *addRoute, body []byte, limit int64) (countReq, bool) {
	t.Helper()
	api := &API{Registry: route.reg, Metrics: route.met, MaxBodyBytes: limit}

	var ref countReq
	refRec := httptest.NewRecorder()
	refOK := api.decodeBody(refRec, countRequest(body), &ref)
	b := new(countBuf)
	got := httptest.NewRecorder()
	req, ok := api.decodeCount(got, countRequest(body), b)
	if ok != refOK {
		t.Fatalf("body %q (limit %d): scanner ok=%v (%s), reference ok=%v (%s)", body, limit, ok, got.Body, refOK, refRec.Body)
	}
	if !ok {
		if got.Code != refRec.Code || errorCode(t, got.Body.Bytes()) != errorCode(t, refRec.Body.Bytes()) {
			t.Fatalf("body %q (limit %d): scanner %d %s, reference %d %s", body, limit, got.Code, got.Body, refRec.Code, refRec.Body)
		}
		return ref, false
	}
	for _, l := range []struct {
		name      string
		got, want [][]int
		over      bool
	}{{"clauses", req.Clauses, ref.Clauses, b.clauses.over}, {"terms", req.Terms, ref.Terms, b.terms.over}} {
		lits := 0
		for _, x := range l.want {
			lits += len(x)
		}
		if wantOver := len(l.want) > maxLists || lits > maxLits; l.over != wantOver {
			t.Fatalf("body %q: %s over-size %v, reference %d lists of %d literals", body, l.name, l.over, len(l.want), lits)
		}
		if !l.over && !slices.EqualFunc(l.got, l.want, slices.Equal) {
			t.Fatalf("body %q: %s %v, reference %v", body, l.name, l.got, l.want)
		}
	}
	req.Clauses, req.Terms = ref.Clauses, ref.Terms
	if !reflect.DeepEqual(req, ref) {
		t.Fatalf("body %q: scanner %+v, reference %+v", body, req, ref)
	}
	return ref, true
}

// BenchmarkCountDecode times the decode of one count body of the
// perfbench shape (62 3-literal clauses over 20 variables, 787 bytes)
// by the scanner and by the encoding/json reference.
func BenchmarkCountDecode(b *testing.B) {
	body := []byte(`{"algorithm":"bucketing","clauses":[` +
		strings.Repeat(`[-13,7,20],`, 61) + `[4,-1,-18]],"kind":"cnf","n":20,"seed":12345678901234567}`)
	b.Run("scanner", func(b *testing.B) {
		b.ReportAllocs()
		buf := new(countBuf)
		for range b.N {
			if req, err := scanCount(body, false, buf); err != nil || len(req.Clauses) != 62 {
				b.Fatal(err)
			}
		}
	})
	b.Run("encoding-json", func(b *testing.B) {
		b.ReportAllocs()
		api := &API{}
		for range b.N {
			var req countReq
			if !api.decodeBody(httptest.NewRecorder(), countRequest(body), &req) || len(req.Clauses) != 62 {
				b.Fatal("reference refused the body")
			}
		}
	})
}

func TestCountBufReleaseDropsLargeBuffers(t *testing.T) {
	large := &countBuf{body: make([]byte, 0, maxPooled+1), clauses: formula{
		lits: make([]int, 0, maxPooled/8+1), spans: make([]span, 0, maxPooled/12+1), out: make([][]int, 0, maxPooled/24+1)}}
	large.release()
	if f := large.clauses; large.body != nil || f.lits != nil || f.spans != nil || f.out != nil {
		t.Errorf("release kept buffers past %d bytes for the pool", maxPooled)
	}
	small := &countBuf{body: make([]byte, 0, 4096), terms: formula{lits: make([]int, 2, 1024), spans: make([]span, 0, 64)}}
	small.terms.out = [][]int{small.terms.lits}
	small.release()
	if f := small.terms; small.body == nil || f.lits == nil || f.spans == nil || f.out == nil {
		t.Error("release dropped buffers the pool should keep")
	}
	if out := small.terms.out[:1]; out[0] != nil {
		t.Error("release left a list header pointing into the slab")
	}
}
