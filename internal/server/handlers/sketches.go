package handlers

import (
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"

	"mcf0"
	"mcf0/internal/server/middleware"
	"mcf0/internal/server/state"
)

// createReq is the body of POST /v1/sketches.
type createReq struct {
	Name       string  `json:"name"`
	Bits       int     `json:"bits"`
	Algorithm  string  `json:"algorithm"`
	Epsilon    float64 `json:"epsilon"`
	Delta      float64 `json:"delta"`
	Thresh     int     `json:"thresh"`
	Iterations int     `json:"iterations"`
	Seed       U64     `json:"seed"`
	Replicas   int     `json:"replicas"`
}

// sketchInfo is the representation every inspect-style response shares.
type sketchInfo struct {
	Name        string  `json:"name"`
	Algorithm   string  `json:"algorithm"`
	Bits        int     `json:"bits"`
	Epsilon     float64 `json:"epsilon"`
	Delta       float64 `json:"delta"`
	Thresh      int     `json:"thresh"`
	Iterations  int     `json:"iterations"`
	Seed        U64     `json:"seed"`
	Replicas    int     `json:"replicas"`
	Items       U64     `json:"items"`
	Version     U64     `json:"version"`
	SketchWords int     `json:"sketch_words"`
	Dirty       bool    `json:"dirty"`
}

func info(sk *state.Sketch) sketchInfo {
	cfg := sk.Config.MCF0Config().Resolved()
	alg := sk.Config.Algorithm
	if alg == "" {
		alg = "bucketing"
	}
	return sketchInfo{
		Name:        sk.Name,
		Algorithm:   alg,
		Bits:        sk.Config.Bits,
		Epsilon:     cfg.Epsilon,
		Delta:       cfg.Delta,
		Thresh:      cfg.Thresh,
		Iterations:  cfg.Iterations,
		Seed:        U64(sk.Config.Seed),
		Replicas:    sk.Replicas(),
		Items:       U64(sk.Items()),
		Version:     U64(sk.Version()),
		SketchWords: sk.SketchWords(),
		Dirty:       sk.Dirty(),
	}
}

// Create handles POST /v1/sketches.
func (api *API) Create(w http.ResponseWriter, r *http.Request) {
	var req createReq
	if !api.decodeBody(w, r, &req) {
		return
	}
	if !state.ValidName(req.Name) {
		middleware.WriteError(w, http.StatusBadRequest, "invalid_name",
			"sketch name must be 1-64 characters from [A-Za-z0-9_.-], starting alphanumeric")
		return
	}
	if req.Bits < 1 || req.Bits > 64 {
		middleware.WriteError(w, http.StatusBadRequest, "invalid_config", "bits must be in [1,64]")
		return
	}
	if !validAlgorithm(req.Algorithm) {
		middleware.WriteError(w, http.StatusBadRequest, "invalid_config",
			fmt.Sprintf("unknown algorithm %q (want one of: %s)", req.Algorithm, algNames))
		return
	}
	cfg := state.SketchConfig{
		Bits:       req.Bits,
		Algorithm:  strings.ToLower(req.Algorithm),
		Epsilon:    req.Epsilon,
		Delta:      req.Delta,
		Thresh:     req.Thresh,
		Iterations: req.Iterations,
		Seed:       uint64(req.Seed),
		Replicas:   req.Replicas,
	}
	if !validConfig(w, cfg.MCF0Config()) {
		return
	}
	t := tenant(r)
	sk, err := api.Registry.Create(t.Name, req.Name, cfg, t.MaxSketches)
	switch {
	case errors.Is(err, state.ErrExists):
		middleware.WriteError(w, http.StatusConflict, "already_exists", fmt.Sprintf("sketch %q already exists", req.Name))
		return
	case errors.Is(err, state.ErrQuota):
		middleware.WriteError(w, http.StatusForbidden, "quota_exhausted",
			fmt.Sprintf("tenant %q is at its quota of %d sketches", t.Name, t.MaxSketches))
		return
	case err != nil:
		middleware.WriteError(w, http.StatusBadRequest, "invalid_config", err.Error())
		return
	}
	writeJSON(w, http.StatusCreated, map[string]any{"sketch": info(sk)})
}

// List handles GET /v1/sketches.
func (api *API) List(w http.ResponseWriter, r *http.Request) {
	sketches := api.Registry.List(tenant(r).Name)
	infos := make([]sketchInfo, len(sketches))
	for i, sk := range sketches {
		infos[i] = info(sk)
	}
	writeJSON(w, http.StatusOK, map[string]any{"sketches": infos})
}

// Get handles GET /v1/sketches/{name}.
func (api *API) Get(w http.ResponseWriter, r *http.Request) {
	sk, ok := api.sketchOr404(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"sketch": info(sk)})
}

// Delete handles DELETE /v1/sketches/{name}; persisted snapshot files
// are removed with the sketch.
func (api *API) Delete(w http.ResponseWriter, r *http.Request) {
	sk, ok := api.sketchOr404(w, r)
	if !ok {
		return
	}
	if err := api.Registry.Delete(sk.Tenant, sk.Name); err != nil {
		middleware.WriteError(w, http.StatusNotFound, "not_found", fmt.Sprintf("sketch %q not found", sk.Name))
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// Add handles POST /v1/sketches/{name}/add: batched ingestion through
// the sketch's lock-free concurrent front. The whole batch is validated
// before any element is ingested — an out-of-range element rejects the
// request atomically with 400.
func (api *API) Add(w http.ResponseWriter, r *http.Request) {
	sk, ok := api.sketchOr404(w, r)
	if !ok {
		return
	}
	b := addBufs.Get().(*addBuf)
	defer b.release()
	xs, ok := api.decodeAdd(w, r, b)
	if !ok {
		return
	}
	bits := sk.Config.Bits
	if bits < 64 {
		limit := uint64(1) << uint(bits)
		for i, x := range xs {
			if x >= limit {
				middleware.WriteError(w, http.StatusBadRequest, "element_out_of_range",
					fmt.Sprintf("elements[%d] = %d exceeds the %d-bit universe; batch rejected", i, x, bits))
				return
			}
		}
	}
	// AddBatch absorbs xs before it returns and keeps no reference, so the
	// pooled slice can go straight in.
	sk.AddBatch(xs)
	if err := sk.Err(); err != nil {
		sketchFailed(w, err)
		return
	}
	t := tenant(r)
	api.Metrics.AddLabeled("f0d_ingest_requests_total", tenantLabel(t), 1)
	api.Metrics.AddLabeled("f0d_ingest_elements_total", tenantLabel(t), float64(len(xs)))
	writeJSON(w, http.StatusOK, addResp{Ingested: len(xs), Items: U64(sk.Items()), Version: U64(sk.Version())})
}

// addResp is the add response, its fields in key order.
type addResp struct {
	Ingested int `json:"ingested"`
	Items    U64 `json:"items"`
	Version  U64 `json:"version"`
}

// Estimate handles GET /v1/sketches/{name}/estimate. The sketch's
// concurrent front caches the answer against its write-version counter:
// queries between writes are served without locking the replicas, and the reported
// estimate is bit-identical to an in-process F0 over the same stream
// (determinism invariant 7).
func (api *API) Estimate(w http.ResponseWriter, r *http.Request) {
	sk, ok := api.sketchOr404(w, r)
	if !ok {
		return
	}
	est, version, cached := sk.Estimate()
	if err := sk.Err(); err != nil {
		sketchFailed(w, err)
		return
	}
	if math.IsInf(est, 0) || math.IsNaN(est) {
		// JSON has no infinity; the count route answers the same cause
		// the same way.
		middleware.WriteError(w, http.StatusBadRequest, "invalid_config",
			"the estimate diverged: every hash reached the range; create the sketch with a larger thresh")
		return
	}
	t := tenant(r)
	api.Metrics.AddLabeled("f0d_estimate_queries_total", tenantLabel(t), 1)
	if cached {
		api.Metrics.AddLabeled("f0d_estimate_cache_hits_total", tenantLabel(t), 1)
	}
	writeJSON(w, http.StatusOK, estimateResp{Cached: cached, Estimate: est, Items: U64(sk.Items()), Version: U64(version)})
}

// estimateResp is the estimate response, its fields in key order.
type estimateResp struct {
	Cached   bool    `json:"cached"`
	Estimate float64 `json:"estimate"`
	Items    U64     `json:"items"`
	Version  U64     `json:"version"`
}

// Snapshot handles POST /v1/sketches/{name}/snapshot: the complete
// merged sketch state is encoded with the versioned wire codec and
// persisted under the data directory (409 when the daemon runs without
// one). Ingestion may continue concurrently.
func (api *API) Snapshot(w http.ResponseWriter, r *http.Request) {
	sk, ok := api.sketchOr404(w, r)
	if !ok {
		return
	}
	snap, err := api.Registry.Snapshot(sk)
	if errors.Is(err, state.ErrNoDataDir) {
		middleware.WriteError(w, http.StatusConflict, "snapshots_disabled",
			"snapshot persistence is disabled: start f0d with -data <dir>")
		return
	}
	if errors.Is(err, state.ErrBreakerOpen) {
		retryAfter := 1
		if br := api.Registry.Breaker(); br != nil {
			if secs := int((br.RetryAfter() + time.Second - 1) / time.Second); secs > retryAfter {
				retryAfter = secs
			}
		}
		w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
		middleware.WriteError(w, http.StatusServiceUnavailable, "snapshot_unavailable",
			"snapshot circuit breaker open after repeated disk failures; serving degraded, retry later")
		return
	}
	if errors.Is(err, mcf0.ErrSketchFailed) {
		sketchFailed(w, err)
		return
	}
	if err != nil {
		// A failing disk is an operational condition, not a handler bug:
		// 503 + Retry-After, so well-behaved clients back off and retry.
		w.Header().Set("Retry-After", "1")
		middleware.WriteError(w, http.StatusServiceUnavailable, "snapshot_failed", err.Error())
		return
	}
	t := tenant(r)
	api.Metrics.AddLabeled("f0d_snapshots_total", tenantLabel(t), 1)
	api.Metrics.AddLabeled("f0d_snapshot_bytes_total", tenantLabel(t), float64(snap.Bytes))
	writeJSON(w, http.StatusOK, map[string]any{
		"file":    snap.File,
		"bytes":   snap.Bytes,
		"items":   U64(snap.Items),
		"version": U64(snap.Version),
	})
}

// sketchFailed writes the 500 of a sketch whose front has failed
// (mcf0.ErrSketchFailed): a sketch bug left its state untrusted, so it
// answers nothing until it is deleted or restored from a snapshot.
func sketchFailed(w http.ResponseWriter, err error) {
	middleware.WriteError(w, http.StatusInternalServerError, "sketch_failed",
		err.Error()+"; delete the sketch or restore it from a snapshot")
}
