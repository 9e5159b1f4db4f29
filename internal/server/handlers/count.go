package handlers

import (
	"fmt"
	"math"
	"net/http"
	"strings"

	"mcf0"
	"mcf0/internal/server/middleware"
)

// countReq is the body of POST /v1/count: a one-shot approximate model
// count of a CNF (clauses) or DNF (terms) formula in the DIMACS literal
// convention. scanCount decodes it by hand, its field table countFields
// in this order; the json tags name the keys for the encoding/json
// reference the tests hold it to.
type countReq struct {
	Kind       string  `json:"kind"` // "cnf" or "dnf"
	N          int     `json:"n"`
	Clauses    [][]int `json:"clauses"`
	Terms      [][]int `json:"terms"`
	Algorithm  string  `json:"algorithm"`
	Epsilon    float64 `json:"epsilon"`
	Delta      float64 `json:"delta"`
	Thresh     int     `json:"thresh"`
	Iterations int     `json:"iterations"`
	Seed       U64     `json:"seed"`
	// Parallelism bounds the request's median-trial worker pool
	// (0 = GOMAXPROCS; estimates are bit-identical at every level).
	Parallelism int `json:"parallelism"`
}

// Count handles POST /v1/count. Solver and oracle work is surfaced in
// the response and accumulated into the /metrics solver counters.
func (api *API) Count(w http.ResponseWriter, r *http.Request) {
	b := countBufs.Get().(*countBuf)
	defer b.release()
	req, ok := api.decodeCount(w, r, b)
	if !ok {
		return
	}
	kind := strings.ToLower(req.Kind)
	if kind != "cnf" && kind != "dnf" {
		middleware.WriteError(w, http.StatusBadRequest, "invalid_formula", `kind must be "cnf" or "dnf"`)
		return
	}
	if req.N < 1 || req.N > api.maxCountVars() {
		middleware.WriteError(w, http.StatusBadRequest, "invalid_formula",
			fmt.Sprintf("n must be in [1, %d]", api.maxCountVars()))
		return
	}
	cfg := mcf0.Config{
		Epsilon:     req.Epsilon,
		Delta:       req.Delta,
		Thresh:      req.Thresh,
		Iterations:  req.Iterations,
		Seed:        uint64(req.Seed),
		Parallelism: req.Parallelism,
	}
	if !validConfig(w, cfg) {
		return
	}
	lists, field, over := req.Clauses, "clauses", b.clauses.over
	if kind == "dnf" {
		lists, field, over = req.Terms, "terms", b.terms.over
	}
	if over {
		middleware.WriteError(w, http.StatusRequestEntityTooLarge, "formula_too_large",
			fmt.Sprintf("formula exceeds the %d-%s / %d-literal limit", maxLists, field, maxLits))
		return
	}
	if len(lists) == 0 {
		middleware.WriteError(w, http.StatusBadRequest, "invalid_formula", fmt.Sprintf("%s must be non-empty", field))
		return
	}
	// Both count functions copy the literals into their own formula, so
	// the pooled slab can go straight in.
	var (
		res mcf0.CountResult
		err error
	)
	if kind == "cnf" {
		res, err = mcf0.CountCNFClauses(req.N, lists, mcf0.Algorithm(strings.ToLower(req.Algorithm)), cfg)
	} else {
		res, err = mcf0.CountDNFTerms(req.N, lists, mcf0.Algorithm(strings.ToLower(req.Algorithm)), cfg)
	}
	if err != nil {
		// Every error mcf0 returns here is an input problem: an unknown
		// algorithm, a literal out of range, or an algorithm/formula
		// mismatch (e.g. karpluby on CNF, estimation beyond 24 vars).
		middleware.WriteError(w, http.StatusBadRequest, "invalid_formula", err.Error())
		return
	}
	if math.IsInf(res.Estimate, 0) || math.IsNaN(res.Estimate) {
		// JSON has no infinity. Lemma 3's estimator diverges when every
		// hash reaches the range, which only a very small thresh allows.
		middleware.WriteError(w, http.StatusBadRequest, "invalid_config",
			"the estimate diverged: every hash reached the range; raise thresh")
		return
	}
	t := tenant(r)
	api.Metrics.AddLabeled("f0d_count_requests_total", tenantLabel(t), 1)
	api.Metrics.Add("f0d_oracle_queries_total", float64(res.OracleQueries))
	api.Metrics.Add("f0d_solver_decisions_total", float64(res.Solver.Decisions))
	api.Metrics.Add("f0d_solver_propagations_total", float64(res.Solver.Propagations))
	api.Metrics.Add("f0d_solver_conflicts_total", float64(res.Solver.Conflicts))
	api.Metrics.Add("f0d_solver_learned_total", float64(res.Solver.Learned))
	api.Metrics.Add("f0d_solver_deleted_total", float64(res.Solver.Deleted))
	api.Metrics.Add("f0d_solver_restarts_total", float64(res.Solver.Restarts))
	writeJSON(w, http.StatusOK, countResponse(res))
}

// countResp is the count response. Its fields, like those of every
// typed response, are in key order, the order the map it replaced
// encoded them in.
type countResp struct {
	Estimate      float64    `json:"estimate"`
	OracleQueries int64      `json:"oracle_queries"`
	Solver        solverResp `json:"solver"`
}

func countResponse(res mcf0.CountResult) countResp {
	return countResp{
		Estimate:      res.Estimate,
		OracleQueries: res.OracleQueries,
		Solver: solverResp{
			Conflicts:     res.Solver.Conflicts,
			Decisions:     res.Solver.Decisions,
			Deleted:       res.Solver.Deleted,
			Learned:       res.Solver.Learned,
			LearnedLits:   res.Solver.LearnedLits,
			MinimizedLits: res.Solver.MinimizedLits,
			Propagations:  res.Solver.Propagations,
			Restarts:      res.Solver.Restarts,
		},
	}
}

type solverResp struct {
	Conflicts     int64 `json:"conflicts"`
	Decisions     int64 `json:"decisions"`
	Deleted       int64 `json:"deleted"`
	Learned       int64 `json:"learned"`
	LearnedLits   int64 `json:"learned_lits"`
	MinimizedLits int64 `json:"minimized_lits"`
	Propagations  int64 `json:"propagations"`
	Restarts      int64 `json:"restarts"`
}
