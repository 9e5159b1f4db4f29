package main

import (
	"fmt"
	"slices"

	"mcf0"
)

// verifier checks a phase's results against in-process serial replays
// (determinism invariants 7 and 8): served estimates must be bit-identical
// to a plain F0 over fixture plus ingested elements, and every count
// must equal mcf0.CountCNFClauses with the same seed.
type verifier struct {
	fx        []fixtureSketch
	w         *workload
	refs      map[[2]int64]float64 // (sketch, stream prefix) -> estimate
	countRefs map[int]mcf0.CountResult
}

func newVerifier(fx []fixtureSketch, w *workload) *verifier {
	return &verifier{fx: fx, w: w, refs: map[[2]int64]float64{}, countRefs: map[int]mcf0.CountResult{}}
}

// checkSketches compares the final served estimate of every sketch the
// phase ingested into with its serial replay. It returns how many
// sketches it checked and a description of each mismatch.
func (v *verifier) checkSketches(t *target, p *phase) (int, []string, error) {
	m := int64(len(v.w.ring))
	covered := make([]bool, m)
	for id := int64(0); id < p.executed; id++ {
		if !p.failedIDs[id] {
			covered[id%m] = true
		}
	}
	// With no failures the covered set is the stream prefix, so replays
	// can be shared between phases that covered the same prefix.
	key := int64(-1)
	if len(p.failedIDs) == 0 {
		key = min(p.executed, m)
	}
	touched := map[int]bool{}
	for r, o := range v.w.ring {
		if covered[r] && o.kind == kindIngest {
			touched[o.sketch] = true
		}
	}
	var bad []string
	checked := 0
	for j := range v.fx {
		if !touched[j] {
			continue
		}
		o := estimateOp(v.fx, j)
		rep, err := t.do(&o, -1)
		if err != nil {
			return checked, bad, fmt.Errorf("final estimate of %s: %w", o.path, err)
		}
		want := v.reference(j, covered, key)
		if *rep.Estimate != want {
			bad = append(bad, fmt.Sprintf("%s/%s: served %v, serial replay %v", tenantName(v.fx[j].Tenant), v.fx[j].Name, *rep.Estimate, want))
		}
		checked++
	}
	return checked, bad, nil
}

func (v *verifier) reference(j int, covered []bool, key int64) float64 {
	if e, ok := v.refs[[2]int64{int64(j), key}]; ok && key >= 0 {
		return e
	}
	elems := append([]uint64(nil), v.fx[j].Elems...)
	for r, o := range v.w.ring {
		if covered[r] && o.kind == kindIngest && o.sketch == j {
			elems = append(elems, o.elems...)
		}
	}
	// Sketch state is a function of the element set, so duplicates can
	// be dropped from the replay.
	slices.Sort(elems)
	elems = slices.Compact(elems)
	f, err := mcf0.NewF0(universeBits, mcf0.Algorithm(v.fx[j].Algorithm), mcf0.Config{Seed: v.fx[j].Seed})
	if err != nil {
		panic(err) // the fixture's configurations are valid by construction
	}
	f.AddBatch(elems)
	e := f.Estimate()
	if key >= 0 {
		v.refs[[2]int64{int64(j), key}] = e
	}
	return e
}

// countRef is the in-process count of the workload's formula k.
func (v *verifier) countRef(k int) (mcf0.CountResult, error) {
	if r, ok := v.countRefs[k]; ok {
		return r, nil
	}
	f := v.w.formulas[k]
	r, err := mcf0.CountCNFClauses(f.N, f.Clauses, mcf0.AlgorithmBucketing, mcf0.Config{Seed: f.Seed})
	if err == nil {
		v.countRefs[k] = r
	}
	return r, err
}

// checkCounts compares every count reply with the in-process count.
func (v *verifier) checkCounts(p *phase) (int, []string, error) {
	var bad []string
	checked := 0
	for k := 0; k < len(v.w.formulas); k++ {
		ref, err := v.countRef(k)
		if err != nil {
			return checked, bad, err
		}
		for _, rep := range p.counts[k] {
			if *rep.Estimate != ref.Estimate || *rep.OracleQueries != ref.OracleQueries {
				bad = append(bad, fmt.Sprintf("formula %d: served estimate %v oracle queries %d, in-process %v and %d",
					k, *rep.Estimate, *rep.OracleQueries, ref.Estimate, ref.OracleQueries))
			}
			checked++
		}
	}
	return checked, bad, nil
}
