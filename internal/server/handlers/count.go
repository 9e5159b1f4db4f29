package handlers

import (
	"fmt"
	"net/http"
	"strings"

	"mcf0"
	"mcf0/internal/server/middleware"
)

// countReq is the body of POST /v1/count: a one-shot approximate model
// count of a CNF (clauses) or DNF (terms) formula in the DIMACS literal
// convention.
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
	var req countReq
	if !api.decodeBody(w, r, &req) {
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
	lists, field := req.Clauses, "clauses"
	if kind == "dnf" {
		lists, field = req.Terms, "terms"
	}
	if len(lists) == 0 {
		middleware.WriteError(w, http.StatusBadRequest, "invalid_formula", fmt.Sprintf("%s must be non-empty", field))
		return
	}
	lits := 0
	for _, l := range lists {
		lits += len(l)
	}
	if len(lists) > 1<<17 || lits > 1<<20 {
		middleware.WriteError(w, http.StatusRequestEntityTooLarge, "formula_too_large",
			fmt.Sprintf("formula exceeds the %d-%s / %d-literal limit", 1<<17, field, 1<<20))
		return
	}
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
	t := tenant(r)
	api.Metrics.AddLabeled("f0d_count_requests_total", tenantLabel(t), 1)
	api.Metrics.Add("f0d_oracle_queries_total", float64(res.OracleQueries))
	api.Metrics.Add("f0d_solver_decisions_total", float64(res.Solver.Decisions))
	api.Metrics.Add("f0d_solver_propagations_total", float64(res.Solver.Propagations))
	api.Metrics.Add("f0d_solver_conflicts_total", float64(res.Solver.Conflicts))
	api.Metrics.Add("f0d_solver_learned_total", float64(res.Solver.Learned))
	api.Metrics.Add("f0d_solver_deleted_total", float64(res.Solver.Deleted))
	api.Metrics.Add("f0d_solver_restarts_total", float64(res.Solver.Restarts))
	writeJSON(w, http.StatusOK, map[string]any{
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
	})
}
