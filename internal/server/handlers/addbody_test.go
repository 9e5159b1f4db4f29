package handlers

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"mcf0/internal/server/metrics"
	"mcf0/internal/server/middleware"
	"mcf0/internal/server/state"
)

// addReq is the add body as encoding/json decodes it. Through decodeBody
// it is the reference scanAdd must match: accept/reject, error code and
// every element value.
type addReq struct {
	Elements []U64 `json:"elements"`
}

// addBodyCases are the add body's edge cases: the grammar docs/API.md
// states, each side of every encoding/json quirk the scanner copies, and
// bodies cut by the size limit. They seed FuzzAddBody.
var addBodyCases = []struct {
	body     string
	limit    int64 // MaxBodyBytes (0 = default)
	maxBatch int   // MaxBatch (0 = default)
}{
	{body: `{"elements":[1,2,3]}`},
	{body: " \t\n{ \"elements\" : [ 1 , \"2\" ,3 ] } \r\n"},
	{body: `{}`},
	{body: `{"elements":null}`},
	{body: `null`},
	{body: ` null `},
	{body: `{"elements":[]}`},
	{body: `{"elements":[null]}`},
	{body: `{"ELEMENTS":[7]}`},
	{body: `{"elementſ":[7]}`},
	{body: `{"el\u0065ments":[7]}`},
	{body: `{"element\u017f":[7]}`},
	{body: `{"element\u017F":[7], "ELEMENTS":[8]}`},
	{body: `{"elements\ud800":[7]}`},
	{body: `{"\ud800lements":[7]}`},
	{body: `{"\ud83d\ude00lements":[7]}`},
	{body: `{"eleme\nts":[7]}`},
	{body: "{\"elements\":[1, 2,\t3,\n4 ,5]}"},
	{body: `{"😀":1}`},
	{body: "{\"elem\xffents\":[7]}"},
	{body: `{"elements":[1],"elements":[2,3]}`},
	{body: `{"elements":[1],"elements":null}`},
	{body: `{"elements":null,"elements":[4]}`},
	{body: `{"elements":[1],"bogus":1}`},
	{body: `{"bogus":{"a":[1,{"b":null}]},"elements":[1]}`},
	{body: `{"elements":[0]}`},
	{body: `{"elements":[01]}`},
	{body: `{"elements":[-0]}`},
	{body: `{"elements":[-1]}`},
	{body: `{"elements":[+1]}`},
	{body: `{"elements":[1.0]}`},
	{body: `{"elements":[1e3]}`},
	{body: `{"elements":[1E+3]}`},
	{body: `{"elements":[1.]}`},
	{body: `{"elements":[18446744073709551615]}`},
	{body: `{"elements":[18446744073709551616]}`},
	{body: `{"elements":[99999999999999999999]}`},
	{body: `{"elements":["18446744073709551615"]}`},
	{body: `{"elements":["18446744073709551616"]}`},
	{body: `{"elements":["0000000000000000000000000018446744073709551615"]}`},
	{body: `{"elements":["0012"]}`},
	{body: `{"elements":[""]}`},
	{body: `{"elements":["1\u0032"]}`},
	{body: `{"elements":["1\\"]}`},
	{body: `{"elements":[" 1"]}`},
	{body: `{"elements":["1 "]}`},
	{body: `{"elements":["+1"]}`},
	{body: `{"elements":["-1"]}`},
	{body: `{"elements":["1e3"]}`},
	{body: "{\"elements\":[\"1\n\"]}"},
	{body: `{"elements":[true]}`},
	{body: `{"elements":[false]}`},
	{body: `{"elements":[{}]}`},
	{body: `{"elements":[[]]}`},
	{body: `{"elements":["ten"]}`},
	{body: `{"elements":"zap"}`},
	{body: `{"elements":{}}`},
	{body: `{"elements":1}`},
	{body: `{"elements":[1,]}`},
	{body: `{"elements":[1 2]}`},
	{body: `{"elements":[1],}`},
	{body: `{"elements":[1]`},
	{body: `{"elements":[1]}}`},
	{body: `{"elements":[1]}]`},
	{body: `{"elements":[1]}x`},
	{body: `{"elements":[1]}{}`},
	{body: `{"elements":[1]} 2`},
	{body: `{"elements" [1]}`},
	{body: `{elements:[1]}`},
	{body: `[1,2]`},
	{body: `1`},
	{body: `"x"`},
	{body: `true`},
	{body: ``},
	{body: ` `},
	{body: `{`},
	{body: `nul`},
	{body: `nullx`},
	{body: `null}`},
	{body: `{"x":` + strings.Repeat("[", 9999) + strings.Repeat("]", 9999) + `}`},
	{body: `{"x":` + strings.Repeat("[", 10000) + strings.Repeat("]", 10000) + `}`},
	// Cut by the body limit: past it the decode needs more bytes (413)
	// unless a syntax error comes first (400).
	{body: `{"elements":[1,2,3]}`, limit: 20},
	{body: `{"elements":[1,2,3]}`, limit: 19},
	{body: `{"elements":[1,2,3]}`, limit: 8},
	{body: `{"elements":[1]}   `, limit: 17},
	{body: `{"elements":[1]}  x`, limit: 18},
	{body: `{"bogus":1,"elements":[1,2,3,4]}`, limit: 24},
	{body: `{"elements":[1,],"x":[1,2,3,4,5,6]}`, limit: 20},
	{body: `"abc"  `, limit: 5},
	{body: `nullx`, limit: 4},
	{body: `{"elements":[1]} 00`, limit: 18},
	{body: `{"elements":[1]} "ab"`, limit: 20},
	{body: `{"elements":[1]} "ab" `, limit: 21},
	{body: `{"elements":[1]} [1,2]`, limit: 19},
	{body: `{"elements":[1]} x1234`, limit: 19},
	{body: `12345`, limit: 3},
	{body: `{"x":` + strings.Repeat("[", 10001), limit: 10005},
	{body: `{"x":` + strings.Repeat("[", 10001), limit: 10004},
	{body: `{"x":"\'abc"}`, limit: 9},
	{body: `{"x":"\u12g4abc"}`, limit: 12},
	{body: "{\"x\":\"\tabc\"}", limit: 8},
	// Longer than MaxBatch: 413, unless an element is malformed (400).
	{body: `{"elements":[1,2,3,4,5]}`, maxBatch: 4},
	{body: `{"elements":[1,2,3,4]}`, maxBatch: 4},
	{body: `{"elements":[1,2,3,4,5,"x"]}`, maxBatch: 4},
	{body: `{"elements":[1,2,3,4,5],"elements":[1]}`, maxBatch: 4},
	{body: `{"elements":[1,2,3,4,5]`, maxBatch: 4},
}

func TestAddBodyMatchesReference(t *testing.T) {
	route := newAddRoute(t)
	for _, tc := range addBodyCases {
		checkAddBody(t, route, []byte(tc.body), tc.limit, tc.maxBatch)
	}
}

// TestAddBodyGrammar pins the decisions docs/API.md documents, so a
// change in encoding/json cannot silently move both sides of the
// differential at once.
func TestAddBodyGrammar(t *testing.T) {
	for _, tc := range []struct {
		body string
		want []uint64 // nil = rejected with 400 bad_request
	}{
		{` { "elements" : [ 1 , "2" ] } `, []uint64{1, 2}},
		{`null`, []uint64{}},
		{`{}`, []uint64{}},
		{`{"elements":null}`, []uint64{}},
		{`{"elements":[null]}`, nil},
		{`{"ELEMENTS":[7]}`, []uint64{7}},
		{`{"elementſ":[7]}`, []uint64{7}},
		{`{"elements":[1],"elements":[2]}`, []uint64{2}},
		{`{"elements":["0012"]}`, []uint64{12}},
		{`{"elements":["18446744073709551615"]}`, []uint64{1<<64 - 1}},
		{`{"elements":[18446744073709551615]}`, []uint64{1<<64 - 1}},
		{`{"elements":[18446744073709551616]}`, nil},
		{`{"elements":[""]}`, nil},
		{`{"elements":["1\u0032"]}`, nil},
		{`{"elements":[01]}`, nil},
		{`{"elements":[-0]}`, nil},
		{`{"elements":[1e0]}`, nil},
		{`{"elements":[1]}}`, nil},
		{`{"elements":[1]}]`, nil},
		{`{"bogus":1}`, nil},
	} {
		xs, _, err := scanAdd([]byte(tc.body), false, 1<<16, nil)
		if (err != nil) != (tc.want == nil) || err == nil && !slices.Equal(xs, tc.want) {
			t.Errorf("scanAdd(%s) = %v, %v; want %v", tc.body, xs, err, tc.want)
		}
	}
}

// FuzzAddBody runs the add-body scanner against the encoding/json
// reference — accept/reject, status, error code and element values — and
// drives the real Add route, which must never answer 5xx.
func FuzzAddBody(f *testing.F) {
	for _, tc := range addBodyCases {
		if len(tc.body) > 1<<10 {
			continue // the nesting-depth cases: minimizing them eats the fuzz budget
		}
		f.Add([]byte(tc.body), uint16(tc.limit), uint8(tc.maxBatch))
	}
	route := newAddRoute(f)
	f.Fuzz(func(t *testing.T, body []byte, limit uint16, maxBatch uint8) {
		checkAddBody(t, route, body, int64(limit), int(maxBatch))
	})
}

// addRoute is the Add handler behind real authentication, over one
// 8-bit sketch, so out-of-range elements are reachable.
type addRoute struct {
	reg  *state.Registry
	met  *metrics.Metrics
	auth *middleware.Auth
}

func newAddRoute(tb testing.TB) *addRoute {
	met := metrics.New()
	auth, err := middleware.NewAuth([]middleware.TenantConfig{{Name: "t", Token: "tok"}}, met, nil)
	if err != nil {
		tb.Fatal(err)
	}
	reg := state.NewRegistry("")
	if _, err := reg.Create("t", "m", state.SketchConfig{Bits: 8, Replicas: 1}, 0); err != nil {
		tb.Fatal(err)
	}
	return &addRoute{reg: reg, met: met, auth: auth}
}

func addRequest(body []byte) *http.Request {
	r := httptest.NewRequest("POST", "/v1/sketches/m/add", bytes.NewReader(body))
	r.Header.Set("Authorization", "Bearer tok")
	r.SetPathValue("name", "m")
	return r
}

// checkAddBody compares decodeAdd against decodeBody(&addReq) plus the
// batch limit, then the Add route against that reference plus the
// universe check.
func checkAddBody(t *testing.T, route *addRoute, body []byte, limit int64, maxBatch int) {
	t.Helper()
	api := &API{Registry: route.reg, Metrics: route.met, MaxBodyBytes: limit, MaxBatch: maxBatch}

	var req addReq
	ref := httptest.NewRecorder()
	refOK := api.decodeBody(ref, addRequest(body), &req)
	if refOK && len(req.Elements) > api.maxBatch() {
		refOK = false
		middleware.WriteError(ref, http.StatusRequestEntityTooLarge, "batch_too_large", "")
	}
	got := httptest.NewRecorder()
	xs, ok := api.decodeAdd(got, addRequest(body), new(addBuf))
	if ok != refOK || ok && !slices.Equal(xs, u64s(req.Elements)) {
		t.Fatalf("body %q (limit %d, batch %d): scanner ok=%v %v, reference ok=%v %v (%s)",
			body, limit, maxBatch, ok, xs, refOK, req.Elements, ref.Body)
	}
	wantStatus, wantCode := http.StatusOK, ""
	if !refOK {
		wantStatus, wantCode = ref.Code, errorCode(t, ref.Body.Bytes())
		if got.Code != wantStatus || errorCode(t, got.Body.Bytes()) != wantCode {
			t.Fatalf("body %q (limit %d, batch %d): scanner %d %s, reference %d %s",
				body, limit, maxBatch, got.Code, got.Body, ref.Code, ref.Body)
		}
	} else if slices.ContainsFunc(xs, func(x uint64) bool { return x >= 1<<8 }) {
		wantStatus, wantCode = http.StatusBadRequest, "element_out_of_range"
	}

	rec := httptest.NewRecorder()
	route.auth.Wrap(http.HandlerFunc(api.Add)).ServeHTTP(rec, addRequest(body))
	if rec.Code >= 500 {
		t.Fatalf("body %q: Add answered %d: %s", body, rec.Code, rec.Body)
	}
	if rec.Code != wantStatus || wantCode != "" && errorCode(t, rec.Body.Bytes()) != wantCode {
		t.Fatalf("body %q (limit %d, batch %d): Add answered %d %s, want %d %s",
			body, limit, maxBatch, rec.Code, rec.Body, wantStatus, wantCode)
	}
}

func u64s(in []U64) []uint64 {
	out := make([]uint64, len(in))
	for i, x := range in {
		out[i] = uint64(x)
	}
	return out
}

func errorCode(t *testing.T, body []byte) string {
	t.Helper()
	var env struct {
		Error struct{ Code string } `json:"error"`
	}
	if err := json.Unmarshal(body, &env); err != nil || env.Error.Code == "" {
		t.Fatalf("no error envelope in %q (%v)", body, err)
	}
	return env.Error.Code
}

func TestAddBufReleaseDropsLargeBuffers(t *testing.T) {
	large := &addBuf{body: make([]byte, 0, maxPooled+1), xs: make([]uint64, 0, maxPooled/8+1)}
	large.release()
	if large.body != nil || large.xs != nil {
		t.Errorf("release kept buffers past %d bytes for the pool", maxPooled)
	}
	small := &addBuf{body: make([]byte, 0, 4096), xs: make([]uint64, 0, 1024)}
	small.release()
	if small.body == nil || small.xs == nil {
		t.Error("release dropped buffers the pool should keep")
	}
}
