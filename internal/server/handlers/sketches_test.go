package handlers

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"mcf0"
	"mcf0/internal/params"
	"mcf0/internal/server/middleware"
	"mcf0/internal/server/state"
)

// serve runs one authenticated request through handler h on route.
func (route *addRoute) serve(h http.HandlerFunc, method, path, name string, body []byte) *httptest.ResponseRecorder {
	r := httptest.NewRequest(method, path, bytes.NewReader(body))
	r.Header.Set("Authorization", "Bearer tok")
	if name != "" {
		r.SetPathValue("name", name)
	}
	rec := httptest.NewRecorder()
	route.auth.Wrap(h).ServeHTTP(rec, r)
	return rec
}

// TestCreateDocumented runs the docs/API.md create example through the
// authenticated Create route and checks that the response, resolved
// thresh and iterations included, is the one the document shows.
func TestCreateDocumented(t *testing.T) {
	raw, err := os.ReadFile("../../../docs/API.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(raw), "### `POST /v1/sketches`")
	if !ok {
		t.Fatal("docs/API.md has no POST /v1/sketches section")
	}
	section, _, _ = strings.Cut(section, "\n### ")
	req := regexp.MustCompile(`-d '([^']*)'`).FindStringSubmatch(section)
	resp := regexp.MustCompile("(?s)```json\n(.*?)```").FindStringSubmatch(section)
	if req == nil || resp == nil {
		t.Fatal("the create section needs a curl -d '…' request and a json response block")
	}
	var want map[string]any
	if err := json.Unmarshal([]byte(resp[1]), &want); err != nil {
		t.Fatalf("documented response: %v", err)
	}

	route := newAddRoute(t)
	api := &API{Registry: route.reg, Metrics: route.met}
	rec := route.serve(api.Create, "POST", "/v1/sketches", "", []byte(req[1]))
	var got map[string]any
	if rec.Code != http.StatusCreated || json.Unmarshal(rec.Body.Bytes(), &got) != nil {
		t.Fatalf("documented request answered %d: %s", rec.Code, rec.Body)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("documented request returns\n%s\nbut docs/API.md shows\n%s", rec.Body, resp[1])
	}
}

// TestEstimateDivergedIsInvalidConfig drives a thresh-1 estimation
// sketch until Lemma 3's estimator diverges: the estimate route must
// answer that +Inf, which JSON cannot carry, with the count route's 400
// invalid_config, and a finite estimate before it with a 200.
func TestEstimateDivergedIsInvalidConfig(t *testing.T) {
	route := newAddRoute(t)
	sk, err := route.reg.Create("t", "tiny", state.SketchConfig{Bits: 16, Algorithm: "estimation", Thresh: 1, Iterations: 1, Replicas: 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	api := &API{Registry: route.reg, Metrics: route.met}
	estimate := func() *httptest.ResponseRecorder {
		return route.serve(api.Estimate, "GET", "/v1/sketches/tiny/estimate", "tiny", nil)
	}
	sk.AddBatch([]uint64{1})
	if est, _, _ := sk.Estimate(); math.IsInf(est, 0) {
		t.Fatal("one element already diverges: case lost its finite half")
	}
	if rec := estimate(); rec.Code != http.StatusOK || !json.Valid(rec.Body.Bytes()) {
		t.Fatalf("finite estimate: %d %q, want 200 and a JSON body", rec.Code, rec.Body)
	}
	for x := uint64(0); x < 1<<16; x += 64 {
		xs := make([]uint64, 64)
		for i := range xs {
			xs[i] = x + uint64(i)
		}
		sk.AddBatch(xs)
		if est, _, _ := sk.Estimate(); math.IsInf(est, 1) {
			break
		}
	}
	if est, _, _ := sk.Estimate(); !math.IsInf(est, 1) {
		t.Fatalf("the whole universe left the estimate at %v, want +Inf", est)
	}
	rec := estimate()
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), `"invalid_config"`) {
		t.Fatalf("diverged estimate: %d %q, want 400 invalid_config", rec.Code, rec.Body)
	}
}

// TestInfoZeroConfig checks that GET /v1/sketches/{name} reports, for a
// sketch created with every parameter zero, the values params resolves.
func TestInfoZeroConfig(t *testing.T) {
	route := newAddRoute(t)
	api := &API{Registry: route.reg, Metrics: route.met}
	rec := route.serve(api.Get, "GET", "/v1/sketches/m", "m", nil)
	var got struct{ Sketch sketchInfo }
	if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &got) != nil {
		t.Fatalf("inspect answered %d: %s", rec.Code, rec.Body)
	}
	want := params.Options{}.Resolve(0)
	if s := got.Sketch; s.Epsilon != want.Epsilon || s.Delta != want.Delta ||
		s.Thresh != want.Thresh || s.Iterations != want.Iterations {
		t.Errorf("inspect reports ε=%g δ=%g thresh %d iterations %d, want %g %g %d %d",
			s.Epsilon, s.Delta, s.Thresh, s.Iterations, want.Epsilon, want.Delta, want.Thresh, want.Iterations)
	}
}

// TestConfigBoundsBothRoutes sends each out-of-range parameter to the
// create and the count route: both must refuse it with the same 400
// invalid_config.
func TestConfigBoundsBothRoutes(t *testing.T) {
	route := newAddRoute(t)
	api := &API{Registry: route.reg, Metrics: route.met}
	for _, field := range []string{
		`"epsilon":-0.5`, `"delta":-0.1`, `"delta":1`, `"delta":1.5`,
		`"thresh":-1`, `"thresh":1048577`, `"iterations":-1`, `"iterations":65537`,
		`"epsilon":1e-12`,
	} {
		create := route.serve(api.Create, "POST", "/v1/sketches", "",
			[]byte(`{"name":"x","bits":8,`+field+`}`))
		count := route.serve(api.Count, "POST", "/v1/count", "",
			[]byte(`{"kind":"cnf","n":4,"clauses":[[1]],`+field+`}`))
		for name, rec := range map[string]*httptest.ResponseRecorder{"create": create, "count": count} {
			if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), `"invalid_config"`) {
				t.Errorf("%s with %s: %d %s, want 400 invalid_config", name, field, rec.Code, rec.Body)
			}
		}
		if create.Body.String() != count.Body.String() {
			t.Errorf("%s: create answers %s but count %s", field, create.Body, count.Body)
		}
	}
	// The bounds themselves are accepted.
	edge := mcf0.Config{Delta: 0.999, Thresh: 1 << 20, Iterations: 1 << 16}
	if !validConfig(httptest.NewRecorder(), edge) {
		t.Errorf("%+v refused, want accepted", edge)
	}
}

// TestCreateRefusesUndecodableShape sends a shape every field of which is
// in bounds but whose sketch the snapshot decoder refuses: 16 Bucketing
// copies of 2^20 + 1 32-bit cell rows are one row past kmv.MaxSlabWords.
// The route must answer 400 invalid_config without building it (2 GB).
func TestCreateRefusesUndecodableShape(t *testing.T) {
	route := newAddRoute(t)
	api := &API{Registry: route.reg, Metrics: route.met}
	rec := route.serve(api.Create, "POST", "/v1/sketches", "",
		[]byte(`{"name":"big","bits":32,"algorithm":"bucketing","thresh":1048576,"iterations":16,"replicas":1}`))
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), `"invalid_config"`) {
		t.Fatalf("undecodable shape: %d %s, want 400 invalid_config", rec.Code, rec.Body)
	}
	if _, err := route.reg.Get("t", "big"); err == nil {
		t.Fatal("refused sketch was registered")
	}
}

// createBodyCases seed FuzzCreateBody beside the docs/API.md example:
// each edge of bits, thresh, iterations, replicas and epsilon, unknown
// algorithms and names, and malformed bodies.
var createBodyCases = []string{
	`{"name":"x","bits":1}`,
	`{"name":"x","bits":64,"algorithm":"ESTIMATION","thresh":2,"iterations":1}`,
	`{"name":"x","bits":0}`,
	`{"name":"x","bits":65}`,
	`{"name":"x","bits":8,"thresh":-1}`,
	`{"name":"x","bits":8,"thresh":1,"iterations":1}`,
	`{"name":"x","bits":8,"thresh":1048576,"iterations":1,"replicas":1}`,
	`{"name":"x","bits":8,"thresh":1048577}`,
	`{"name":"x","bits":8,"iterations":-1}`,
	`{"name":"x","bits":8,"thresh":1,"iterations":65536,"replicas":1}`,
	`{"name":"x","bits":8,"iterations":65537}`,
	`{"name":"x","bits":8,"thresh":2,"iterations":1,"replicas":-1}`,
	`{"name":"x","bits":8,"thresh":2,"iterations":1,"replicas":1024}`,
	`{"name":"x","bits":8,"thresh":2,"iterations":1,"replicas":1025}`,
	`{"name":"x","bits":8,"epsilon":-0.5}`,
	`{"name":"x","bits":8,"epsilon":9.79,"iterations":1}`,
	`{"name":"x","bits":8,"epsilon":1e300,"iterations":1}`,
	`{"name":"x","bits":8,"epsilon":0.00957,"iterations":1}`,
	`{"name":"x","bits":8,"epsilon":1e-12,"iterations":1}`,
	`{"name":"x","bits":8,"epsilon":5e-324,"iterations":1}`,
	`{"name":"x","bits":8,"delta":5e-324,"thresh":1}`,
	`{"name":"x","bits":8,"delta":1}`,
	`{"name":"x","bits":8,"algorithm":"nope"}`,
	`{"name":"m","bits":8,"thresh":2,"iterations":1}`,
	`{"name":"bad name","bits":8}`,
	`{"name":"x","bits":8,"seed":"18446744073709551615","thresh":2,"iterations":1}`,
	`{"name":"x","bits":"8"}`,
	`{"name":"x","bits":8,"extra":1}`,
	`{"name":"x","bits":8}{}`,
	`[]`, `null`, `{`, ``,
}

// fuzzCreateMaxCells caps the thresh × iterations × replicas an accepted
// fuzz body may build; bodies asking for more are skipped.
const fuzzCreateMaxCells = 1 << 18

// FuzzCreateBody drives POST /v1/sketches through the authenticated
// route: no body may panic or answer 5xx, and an accepted body answers
// 201 with a registered sketch at the resolved thresh and iterations
// whose snapshot decodes through DecodeConcurrentF0.
func FuzzCreateBody(f *testing.F) {
	raw, err := os.ReadFile("../../../docs/API.md")
	if err != nil {
		f.Fatal(err)
	}
	_, section, _ := strings.Cut(string(raw), "### `POST /v1/sketches`")
	if doc := regexp.MustCompile(`-d '([^']*)'`).FindStringSubmatch(section); doc != nil {
		f.Add([]byte(doc[1]))
	} else {
		f.Fatal("docs/API.md has no create example")
	}
	for _, body := range createBodyCases {
		f.Add([]byte(body))
	}
	route := newAddRoute(f)
	api := &API{Registry: route.reg, Metrics: route.met}
	f.Fuzz(func(t *testing.T, body []byte) {
		var req createReq
		if json.Unmarshal(body, &req) == nil {
			cfg := mcf0.Config{Epsilon: req.Epsilon, Delta: req.Delta, Thresh: req.Thresh,
				Iterations: req.Iterations}
			reps := req.Replicas
			if reps == 0 {
				reps = runtime.GOMAXPROCS(0)
			}
			if r := cfg.Resolved(); validConfig(httptest.NewRecorder(), cfg) && reps > 0 &&
				float64(r.Thresh)*float64(r.Iterations)*float64(reps) > fuzzCreateMaxCells {
				t.Skip("asks for more memory than the fuzz cap allows")
			}
		}
		rec := route.serve(api.Create, "POST", "/v1/sketches", "", body)
		if rec.Code >= 500 {
			t.Fatalf("body %q: Create answered %d: %s", body, rec.Code, rec.Body)
		}
		if rec.Code != http.StatusCreated {
			return
		}
		defer route.reg.Delete("t", req.Name)
		var got struct{ Sketch sketchInfo }
		if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
			t.Fatalf("body %q: response %s: %v", body, rec.Body, err)
		}
		want := mcf0.Config{Epsilon: req.Epsilon, Delta: req.Delta, Thresh: req.Thresh,
			Iterations: req.Iterations}.Resolved()
		if s := got.Sketch; s.Name != req.Name || s.Thresh != want.Thresh || s.Iterations != want.Iterations {
			t.Fatalf("body %q: created %+v, want name %q thresh %d iterations %d",
				body, s, req.Name, want.Thresh, want.Iterations)
		}
		sk, err := route.reg.Get("t", req.Name)
		if err != nil {
			t.Fatalf("body %q: answered 201 but the registry has no sketch: %v", body, err)
		}
		// The registry keeps its front private; one built from the
		// registered config has the same shape.
		front, err := mcf0.NewConcurrentF0(sk.Config.Bits, mcf0.Algorithm(sk.Config.Algorithm),
			sk.Config.MCF0Config(), 1)
		if err != nil {
			t.Fatalf("body %q: registered config %+v does not build: %v", body, sk.Config, err)
		}
		blob, err := front.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := mcf0.DecodeConcurrentF0(blob, 1); err != nil {
			t.Fatalf("body %q: answered 201 but its snapshot does not decode: %v", body, err)
		}
	})
}

// TestTerminalLevelAddsAnswer creates an 8-bit Bucketing sketch of one
// Thresh 1 copy whose seed-1 draw maps more than one element to zero,
// then adds the whole universe twice through the Observe-wrapped routes.
// The copy outgrows level 8 on the first add; every request must still
// answer 2xx before the deadline.
func TestTerminalLevelAddsAnswer(t *testing.T) {
	route := newAddRoute(t)
	api := &API{Registry: route.reg, Metrics: route.met}
	elems := make([]string, 256)
	for v := range elems {
		elems[v] = strconv.Itoa(v)
	}
	add := []byte(`{"elements":[` + strings.Join(elems, ",") + `]}`)
	steps := []struct {
		h    http.HandlerFunc
		path string
		body []byte
	}{
		{api.Create, "/v1/sketches", []byte(`{"name":"z","bits":8,"thresh":1,"iterations":1,"seed":1}`)},
		{api.Add, "/v1/sketches/z/add", add},
		{api.Add, "/v1/sketches/z/add", add},
	}
	done := make(chan string, 1)
	go func() {
		for i, s := range steps {
			r := httptest.NewRequest("POST", s.path, bytes.NewReader(s.body))
			r.Header.Set("Authorization", "Bearer tok")
			if i > 0 {
				r.SetPathValue("name", "z")
			}
			rec := httptest.NewRecorder()
			middleware.Observe("test", route.met, route.auth.Wrap(s.h)).ServeHTTP(rec, r)
			if rec.Code/100 != 2 {
				done <- fmt.Sprintf("request %d (%s) answered %d: %s", i, s.path, rec.Code, rec.Body)
				return
			}
		}
		done <- ""
	}()
	select {
	case msg := <-done:
		if msg != "" {
			t.Fatal(msg)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("create and two adds did not all answer within 10s")
	}
}
