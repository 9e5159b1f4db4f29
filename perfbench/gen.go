package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
	"math/rand/v2"
	"sort"
	"strconv"
)

// Fixture shape. Every run boots f0d over a data directory of this shape,
// so restore-on-boot, not process start, dominates set-up time.
const (
	fixtureTenants    = 4
	sketchesPerTenant = 16
	fixtureSketches   = fixtureTenants * sketchesPerTenant
	universeBits      = 32
	// fixtureFill distinct elements per sketch fill every bucket (the
	// default thresh is 151), so the per-element cost is already steady.
	fixtureFill    = 2048
	sketchReplicas = 2
	hotKeys        = 1 << 20
	hotSketchCount = 8
)

// Formula set of the count workload: random 3-CNF over formulaVars
// variables, kept only when the exact model count lies in
// [formulaMinModels, formulaMaxModels], so every count costs about the
// same (tens of ms) whatever the seed.
const (
	formulaVars      = 20
	formulaClauses   = 62
	formulaCount     = 25
	formulaMinModels = 230
	formulaMaxModels = 270
)

// Independent random streams of one seed.
const (
	streamFixture = iota + 1
	streamOps
	streamFormulas
	streamHot
	streamProbe
)

func rng(seed, stream uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, stream)) }

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// scatter maps hot key k to its element: hot keys are spread through the
// whole 32-bit universe rather than packed at its low end.
func scatter(k, salt uint64) uint64 { return splitmix(k^salt) & (1<<universeBits - 1) }

type fixtureSketch struct {
	Tenant    int
	Name      string
	Algorithm string
	Seed      uint64
	Elems     []uint64
}

func tenantName(t int) string  { return "t" + strconv.Itoa(t) }
func tenantToken(t int) string { return "perfbench-token-" + strconv.Itoa(t) }

// fixtureSpec lists the fixture's sketches: fixtureSketches across
// fixtureTenants tenants, three quarters bucketing and one quarter
// minimum, each with fixtureFill random elements.
func fixtureSpec(seed uint64) []fixtureSketch {
	r := rng(seed, streamFixture)
	out := make([]fixtureSketch, fixtureSketches)
	for j := range out {
		alg := "bucketing"
		if j%4 == 3 {
			alg = "minimum"
		}
		elems := make([]uint64, fixtureFill)
		for i := range elems {
			elems[i] = uint64(r.Uint32())
		}
		out[j] = fixtureSketch{
			Tenant:    j / sketchesPerTenant,
			Name:      fmt.Sprintf("s%02d", j%sketchesPerTenant),
			Algorithm: alg,
			Seed:      r.Uint64() | 1,
			Elems:     elems,
		}
	}
	return out
}

// hotSketches picks the hotSketchCount bucketing sketches that the query
// workload and the probe touch. Only bucketing sketches are hot, so merge
// and snapshot cost form one mode.
func hotSketches(seed uint64, fx []fixtureSketch) []int {
	var bucketing []int
	for j, s := range fx {
		if s.Algorithm == "bucketing" {
			bucketing = append(bucketing, j)
		}
	}
	r := rng(seed, streamHot)
	r.Shuffle(len(bucketing), func(a, b int) { bucketing[a], bucketing[b] = bucketing[b], bucketing[a] })
	return bucketing[:hotSketchCount]
}

type formula struct {
	N       int
	Clauses [][]int
	Seed    uint64
}

// genFormulas returns the first k formulas of the seed's formula set; a
// shorter prefix of the same seed is a prefix of a longer one.
func genFormulas(seed uint64, k int) []formula {
	r := rng(seed, streamFormulas)
	var out []formula
	for len(out) < k {
		cls := make([][]int, formulaClauses)
		for i := range cls {
			cl := make([]int, 3)
			for j := range cl {
				v := 1 + r.IntN(formulaVars)
				if r.IntN(2) == 0 {
					v = -v
				}
				cl[j] = v
			}
			cls[i] = cl
		}
		if m := exactModels(formulaVars, cls); m >= formulaMinModels && m <= formulaMaxModels {
			out = append(out, formula{N: formulaVars, Clauses: cls, Seed: r.Uint64() | 1})
		}
	}
	return out
}

// exactModels counts the models of a CNF over n ≥ 6 variables by
// bit-parallel enumeration: word w holds the 64 assignments whose
// variables 7..n spell w, and variables 1..6 vary inside the word.
func exactModels(n int, clauses [][]int) int {
	low := [6]uint64{0xAAAAAAAAAAAAAAAA, 0xCCCCCCCCCCCCCCCC, 0xF0F0F0F0F0F0F0F0,
		0xFF00FF00FF00FF00, 0xFFFF0000FFFF0000, 0xFFFFFFFF00000000}
	total := 0
	for w := 0; w < 1<<(n-6); w++ {
		acc := ^uint64(0)
		for _, cl := range clauses {
			var c uint64
			for _, l := range cl {
				v := l
				if v < 0 {
					v = -v
				}
				var x uint64
				if v <= 6 {
					x = low[v-1]
				} else if w>>(v-7)&1 == 1 {
					x = ^uint64(0)
				}
				if l < 0 {
					x = ^x
				}
				c |= x
			}
			if acc &= c; acc == 0 {
				break
			}
		}
		total += bits.OnesCount64(acc)
	}
	return total
}

type opKind uint8

const (
	kindIngest opKind = iota
	kindEstimate
	kindSnapshot
	kindCount
	numKinds
)

var kindNames = [numKinds]string{"ingest", "estimate", "snapshot", "count"}

// op is one rendered request; bodies are rendered before timing.
type op struct {
	kind    opKind
	sketch  int // fixture index, for sketch ops
	formula int // formula index, for count ops
	elems   []uint64
	tenant  int
	method  string
	path    string
	body    []byte
}

// workload is a closed-loop traffic mix. Op i of the stream is
// ring[i % len(ring)], a pure function of the seed and i.
type workload struct {
	name string
	why  string
	// ladderOps bounds the stream prefix a traced run replays into the
	// lower rungs.
	ladderOps int
	ring      []op
	formulas  []formula
}

var workloadNames = []string{"ingest", "query", "count"}

func sketchPath(fx []fixtureSketch, j int, verb string) string {
	return "/v1/sketches/" + fx[j].Name + "/" + verb
}

func addOp(fx []fixtureSketch, j int, elems []uint64) op {
	body := append([]byte(nil), `{"elements":[`...)
	for i, x := range elems {
		if i > 0 {
			body = append(body, ',')
		}
		body = strconv.AppendUint(body, x, 10)
	}
	body = append(body, "]}"...)
	return op{kind: kindIngest, sketch: j, elems: elems, tenant: fx[j].Tenant,
		method: "POST", path: sketchPath(fx, j, "add"), body: body}
}

func estimateOp(fx []fixtureSketch, j int) op {
	return op{kind: kindEstimate, sketch: j, tenant: fx[j].Tenant, method: "GET", path: sketchPath(fx, j, "estimate")}
}

func snapshotOp(fx []fixtureSketch, j int) op {
	return op{kind: kindSnapshot, sketch: j, tenant: fx[j].Tenant, method: "POST", path: sketchPath(fx, j, "snapshot")}
}

func countOp(fs []formula, k int) op {
	body, err := json.Marshal(map[string]any{
		"kind": "cnf", "n": fs[k].N, "clauses": fs[k].Clauses,
		"algorithm": "bucketing", "seed": fs[k].Seed,
	})
	if err != nil {
		panic(err) // maps of ints and strings always marshal
	}
	return op{kind: kindCount, sketch: -1, formula: k, method: "POST", path: "/v1/count", body: body}
}

// zipfSchedule returns n targets among k, sketch j taking a share of
// them proportional to 1/(j+1)^1.1 (largest remainder), in seeded order.
// Fixed shares, unlike independent Zipf draws, keep the mix of sketch
// algorithms and sizes the same for every seed.
func zipfSchedule(r *rand.Rand, k, n int) []int {
	weights := make([]float64, k)
	total := 0.0
	for j := range weights {
		weights[j] = math.Pow(float64(j+1), -1.1)
		total += weights[j]
	}
	counts := make([]int, k)
	rem := make([]int, k)
	given := 0
	for j := range weights {
		exact := weights[j] / total * float64(n)
		counts[j] = int(exact)
		given += counts[j]
		rem[j] = j
	}
	sort.SliceStable(rem, func(a, b int) bool {
		fa := weights[rem[a]]/total*float64(n) - float64(counts[rem[a]])
		fb := weights[rem[b]]/total*float64(n) - float64(counts[rem[b]])
		return fa > fb
	})
	for i := 0; given < n; i++ {
		counts[rem[i]]++
		given++
	}
	var out []int
	for j, c := range counts {
		for ; c > 0; c-- {
			out = append(out, j)
		}
	}
	r.Shuffle(len(out), func(a, b int) { out[a], out[b] = out[b], out[a] })
	return out
}

// hotBatch draws n elements Zipf-distributed over the hot keys.
func hotBatch(keys *rand.Zipf, salt uint64, n int) []uint64 {
	xs := make([]uint64, n)
	for i := range xs {
		xs[i] = scatter(keys.Uint64(), salt)
	}
	return xs
}

// newWorkload renders the named workload's op ring from the seed.
func newWorkload(name string, seed uint64, fx []fixtureSketch) (*workload, error) {
	r := rng(seed, streamOps)
	keys := rand.NewZipf(r, 1.1, 1, hotKeys-1)
	salt := r.Uint64()
	hot := hotSketches(seed, fx)
	w := &workload{name: name}
	switch name {
	case "ingest":
		w.why = "1024-element adds to Zipf-chosen sketches: absorb, hashing and the concurrent front do the work"
		w.ladderOps = 64
		// 256 batches: the ring repeats well within a run, which bounds
		// the correctness replay without changing the per-batch work.
		for _, j := range zipfSchedule(r, fixtureSketches, 256) {
			w.ring = append(w.ring, addOp(fx, j, hotBatch(keys, salt, 1024)))
		}
	case "query":
		// Rounds of one 16-element add and eight estimates of the same
		// sketch: the first estimate after the add misses the cache and
		// merges replicas, the other seven hit. The garbage the merge leaves
		// makes the next hit or two cost more CPU, so hits after those
		// (5/9 of ops) form the fast mode p50 sits in, and misses (1/9, the
		// costliest ops) the slow mode p90 sits in.
		w.why = "estimates with interleaved small adds on 8 hot sketches: per-request overhead at p50, replica merge at p90"
		w.ladderOps = 384
		for round := 0; round < hotSketchCount*8; round++ {
			j := hot[round%hotSketchCount]
			w.ring = append(w.ring, addOp(fx, j, hotBatch(keys, salt, 16)))
			for k := 0; k < 8; k++ {
				w.ring = append(w.ring, estimateOp(fx, j))
			}
		}
	case "count":
		w.why = "counting 25 seeded 3-CNF formulas in rotation: counting, oracle, SAT and GF(2) do the work"
		w.ladderOps = formulaCount
		w.formulas = genFormulas(seed, formulaCount)
		for k := range w.formulas {
			w.ring = append(w.ring, countOp(w.formulas, k))
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	return w, nil
}

// probeOps renders a short op list covering every op kind. A traced run
// appends it to the ladder, so that each per-layer metric is measured on
// every workload: a kind the workload lacks is measured on the probe.
func probeOps(seed uint64, fx []fixtureSketch) ([]op, []formula) {
	r := rng(seed, streamProbe)
	keys := rand.NewZipf(r, 1.1, 1, hotKeys-1)
	salt := r.Uint64()
	var ops []op
	for _, j := range hotSketches(seed, fx) {
		ops = append(ops, addOp(fx, j, hotBatch(keys, salt, 1024)), estimateOp(fx, j), estimateOp(fx, j), snapshotOp(fx, j))
	}
	fs := genFormulas(seed, 3)
	for k := range fs {
		ops = append(ops, countOp(fs, k))
	}
	return ops, fs
}
