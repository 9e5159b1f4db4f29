// Package handlers implements f0d's HTTP/JSON endpoints: the sketch
// lifecycle (create / list / inspect / delete), batched ingestion riding
// the concurrent front's F0.AddBatch, estimate queries answered from its
// version-keyed cache, snapshot persistence, and one-shot model counting.
//
// Conventions shared by every endpoint: requests and responses are JSON;
// errors use the envelope {"error":{"code":...,"message":...}} written by
// middleware.WriteError, the same writer the middleware uses; client
// mistakes (malformed bodies, unknown fields, out-of-range values,
// missing sketches) are always typed 4xx responses — a 5xx means a server
// bug, never bad input. 64-bit integers (stream elements, seeds) are
// accepted as JSON numbers or decimal strings, since doubles lose
// precision past 2^53.
package handlers

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"mcf0"
	"mcf0/internal/server/metrics"
	"mcf0/internal/server/middleware"
	"mcf0/internal/server/state"
)

// API carries the handlers' dependencies; one instance serves all routes.
type API struct {
	Registry *state.Registry
	Metrics  *metrics.Metrics
	// MaxBatch bounds elements per add request (0 = 65536).
	MaxBatch int
	// MaxBodyBytes bounds request body size (0 = 8 MiB).
	MaxBodyBytes int64
	// MaxCountVars bounds n for /v1/count (0 = 4096).
	MaxCountVars int
}

func (api *API) maxBatch() int {
	if api.MaxBatch > 0 {
		return api.MaxBatch
	}
	return 65536
}

func (api *API) maxBody() int64 {
	if api.MaxBodyBytes > 0 {
		return api.MaxBodyBytes
	}
	return 8 << 20
}

func (api *API) maxCountVars() int {
	if api.MaxCountVars > 0 {
		return api.MaxCountVars
	}
	return 4096
}

// validConfig reports whether cfg is within the bounds both the create
// and the count route accept: epsilon ≥ 0, 0 ≤ delta < 1, thresh in
// [0, 2^20] — also the thresh an epsilon resolves to —, iterations in
// [0, 2^16] and parallelism ≥ 0. Otherwise it writes a 400
// invalid_config naming the first bad field.
func validConfig(w http.ResponseWriter, cfg mcf0.Config) bool {
	var msg string
	switch {
	case cfg.Epsilon < 0 || cfg.Delta < 0 || cfg.Delta >= 1:
		msg = "need epsilon >= 0 and 0 <= delta < 1"
	case cfg.Thresh < 0 || cfg.Thresh > 1<<20:
		msg = "thresh must be in [0, 2^20]"
	case cfg.Resolved().Thresh > 1<<20:
		msg = "epsilon resolves thresh = ⌈96/ε²⌉ past 2^20"
	case cfg.Iterations < 0 || cfg.Iterations > 1<<16:
		msg = "iterations must be in [0, 2^16]"
	case cfg.Parallelism < 0:
		msg = "parallelism must be >= 0"
	default:
		return true
	}
	middleware.WriteError(w, http.StatusBadRequest, "invalid_config", msg)
	return false
}

// U64 is a uint64 that unmarshals from a JSON number or a decimal
// string, so full 64-bit values survive JSON's float64 number type.
type U64 uint64

// UnmarshalJSON accepts 123 or "123".
func (u *U64) UnmarshalJSON(data []byte) error {
	s := string(data)
	if len(s) >= 2 && s[0] == '"' && s[len(s)-1] == '"' {
		s = s[1 : len(s)-1]
	}
	v, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		return fmt.Errorf("want a uint64 as number or decimal string, got %s", data)
	}
	*u = U64(v)
	return nil
}

// MarshalJSON renders large values as strings so they round-trip through
// JSON parsers that read numbers as doubles.
func (u U64) MarshalJSON() ([]byte, error) {
	if u > 1<<53 {
		return []byte(`"` + strconv.FormatUint(uint64(u), 10) + `"`), nil
	}
	return []byte(strconv.FormatUint(uint64(u), 10)), nil
}

// writeJSON emits a JSON response body with the given status.
func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(body)
}

// decodeBody parses the request body into dst: strict JSON (unknown
// fields rejected, trailing garbage rejected), size-capped. On failure it
// writes a typed 4xx and returns false — malformed input can never reach
// a handler's logic, let alone a 5xx.
func (api *API) decodeBody(w http.ResponseWriter, r *http.Request, dst any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, api.maxBody())
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	err := dec.Decode(dst)
	trailing := err == nil
	if trailing {
		// Only the end of the body may follow the value: More would let a
		// stray '}' or ']' through.
		if _, err = dec.Token(); err == io.EOF {
			return true
		}
	}
	var tooBig *http.MaxBytesError
	switch {
	case errors.As(err, &tooBig):
		middleware.WriteError(w, http.StatusRequestEntityTooLarge, "body_too_large",
			fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit))
	case trailing:
		middleware.WriteError(w, http.StatusBadRequest, "bad_request", "trailing data after JSON body")
	default:
		middleware.WriteError(w, http.StatusBadRequest, "bad_request", "malformed request body: "+err.Error())
	}
	return false
}

// tenant returns the authenticated tenant (the Auth middleware runs on
// every /v1 route, so absence is a wiring bug, not a client error).
func tenant(r *http.Request) *middleware.Tenant {
	t := middleware.TenantFrom(r.Context())
	if t == nil {
		panic("handlers: route reached without authentication middleware")
	}
	return t
}

// sketchOr404 resolves {name} to the tenant's sketch.
func (api *API) sketchOr404(w http.ResponseWriter, r *http.Request) (*state.Sketch, bool) {
	name := r.PathValue("name")
	sk, err := api.Registry.Get(tenant(r).Name, name)
	if err != nil {
		middleware.WriteError(w, http.StatusNotFound, "not_found", fmt.Sprintf("sketch %q not found", name))
		return nil, false
	}
	return sk, true
}

// Healthz is the liveness probe: GET /healthz. With the snapshot
// breaker open the daemon is degraded, not dead — estimates still
// serve — so the status flips to "degraded" but the code stays 200:
// orchestrators must not kill a replica that is the only holder of
// dirty in-memory state.
func (api *API) Healthz(w http.ResponseWriter, r *http.Request) {
	body := map[string]string{"status": "ok"}
	if br := api.Registry.Breaker(); br != nil {
		if st := br.State(); st != state.BreakerClosed {
			body["status"] = "degraded"
			body["snapshot_breaker"] = st.String()
		}
	}
	writeJSON(w, http.StatusOK, body)
}

// tenantLabel renders the metric label for a tenant.
func tenantLabel(t *middleware.Tenant) string { return metrics.Label("tenant", t.Name) }

// algNames is the user-facing list of sketch families.
const algNames = "bucketing, minimum, estimation"

func validAlgorithm(alg string) bool {
	switch strings.ToLower(alg) {
	case "", "bucketing", "minimum", "estimation":
		return true
	}
	return false
}
