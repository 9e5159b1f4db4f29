// Command perfbench is the repository's benchmark. It boots f0d as a
// separate process over a seeded fixture data directory, drives it with a
// single-process closed-loop client, checks every result for
// correctness, and prints the end-to-end metrics; with -trace 1 it also
// replays the same op stream through an in-process server and each lower
// layer, and prints the per-layer metrics instead.
//
// Run it through the launcher, which builds f0d and this command from
// the checkout first:
//
//	python3 perfbench/run.py --workload query --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
//
// The end-to-end metrics are read from f0d's own CPU clock, not from the
// wall clock, because on a shared host the time other guests take (steal)
// moves wall-clock figures by tens of percent between runs of the same
// code. Every workload has one closed-loop client, which sends one op at
// a time, so the CPU time f0d uses from an op's request to its response
// is that op's cost, and every repetition of a ring position does the
// same work: cpu_p50_ms and
// cpu_p90_ms are percentiles of it over the op ring (each position's
// median repetition), ops_per_cpu_s is how many ops of the ring one f0d
// CPU second serves, and setup_s is the CPU time f0d needs from spawn
// until it serves. The client-side wall-clock figures are printed too.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"mcf0"
)

const (
	setupBoots   = 9 // set-up time is the median over this many boots
	restoreReps  = 3
	warmUp       = time.Second
	allocSamples = 50
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of f0d sees, printed with -trace 0.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_cpu_s", "1/s"},
	{"cpu_p50_ms", "ms"},
	{"cpu_p90_ms", "ms"},
	{"server_rss_mb", "MB"},
}

// perLayer are the single-layer metrics, printed with -trace 1.
var perLayer = []metricDef{
	{"net.ingest_us", "us"}, {"net.estimate_us", "us"}, {"net.snapshot_us", "us"}, {"net.count_us", "us"},
	{"serve.ingest_us", "us"}, {"serve.estimate_us", "us"}, {"serve.snapshot_us", "us"}, {"serve.count_us", "us"},
	{"serve.ingest_allocs", "count"}, {"serve.estimate_allocs", "count"},
	{"state.add_us", "us"}, {"state.estimate_hit_us", "us"}, {"state.estimate_miss_us", "us"},
	{"state.estimate_cache_hit_ratio", "ratio"},
	{"state.snapshot_ms", "ms"}, {"state.persist_ms", "ms"}, {"state.restore_ms", "ms"},
	{"front.add_ns_per_elem", "ns"}, {"front.merge_us", "us"}, {"front.words", "words"},
	{"sketch.add_ns_per_elem", "ns"},
	{"wire.marshal_us", "us"}, {"wire.snapshot_bytes", "bytes"}, {"wire.decode_ms", "ms"},
	{"counting.count_ms", "ms"}, {"counting.oracle_queries", "count"},
	{"sat.decisions", "count"}, {"sat.propagations", "count"}, {"sat.conflicts", "count"},
	{"sat.props_per_ms", "1/ms"},
	{"f0d.cpu_us_per_op", "us"}, {"client.cpu_us_per_op", "us"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	root     string
	f0d      string
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	flag.Uint64Var(&cfg.seed, "seed", 1, "input seed")
	flag.IntVar(&cfg.seconds, "seconds", 10, "length of the timed phase in seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run printing per-layer metrics")
	flag.StringVar(&cfg.root, "root", ".", "checkout root; scratch files go under its .bench_build")
	flag.StringVar(&cfg.f0d, "f0d", "", "f0d binary")
	flag.Parse()
	cfg.trace = trace == 1
	if cfg.f0d == "" || cfg.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -f0d, -seconds >= 1 and -trace 0|1")
		os.Exit(2)
	}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(3)
	}
}

// report collects metrics and prints each with its unit and sample count.
type report struct {
	defs    []metricDef
	metrics map[string]metricValue
}

func (r *report) set(name string, v float64, n int, note string) {
	for _, d := range r.defs {
		if d.name == name {
			r.metrics[name] = metricValue{Value: v, Unit: d.unit}
			fmt.Printf("metric %-32s %14.6g %-6s n=%d%s\n", name, v, d.unit, n, note)
			return
		}
	}
	panic("undeclared metric " + name)
}

func run(cfg config) (*result, error) {
	root, err := filepath.Abs(cfg.root)
	if err != nil {
		return nil, err
	}
	work := filepath.Join(root, ".bench_build", "runs", fmt.Sprintf("%s-%d", cfg.workload, os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)

	fx := fixtureSpec(cfg.seed)
	w, err := newWorkload(cfg.workload, cfg.seed, fx)
	if err != nil {
		return nil, err
	}
	fixDir := filepath.Join(work, "fixture")
	if err := buildFixture(fixDir, fx); err != nil {
		return nil, err
	}
	authFile := filepath.Join(work, "auth")
	if err := writeAuthFile(authFile); err != nil {
		return nil, err
	}
	fmt.Printf("perfbench: workload=%s seed=%d seconds=%d trace=%v clients=1\n", w.name, cfg.seed, cfg.seconds, cfg.trace)
	fmt.Printf("workload %s: %s\n", w.name, w.why)
	fmt.Printf("env: nproc=%d gomaxprocs=%d f0d_gomaxprocs=%d go=%s commit=%s datadir_fs=%s replicas=%d fixture=%d sketches/%d tenants, %d-bit, %d elements each\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), f0dProcs, runtime.Version(), commitStamp(root), fsType(work),
		sketchReplicas, fixtureSketches, fixtureTenants, universeBits, fixtureFill)

	// Set-up: boot f0d over fresh fixture copies; the last one serves.
	// Set-up time is the CPU time f0d spends from spawn until it is ready,
	// which, unlike the wall-clock time, does not grow when other guests
	// of a shared host take the CPUs.
	var setups, setupWalls []float64
	var d *daemon
	for b := 0; b < setupBoots; b++ {
		dataDir := filepath.Join(work, fmt.Sprintf("data%d", b))
		if err := freshCopy(fixDir, dataDir); err != nil {
			return nil, err
		}
		dd, wall, cpu, err := bootDaemon(cfg.f0d, dataDir, authFile, filepath.Join(work, fmt.Sprintf("f0d%d.log", b)))
		if err != nil {
			return nil, err
		}
		setups, setupWalls = append(setups, cpu.Seconds()), append(setupWalls, wall.Seconds())
		if b < setupBoots-1 {
			dd.stop()
		} else {
			d = dd
		}
	}
	fmt.Printf("setup: boots=%d f0d cpu seconds=%.4f\nsetup: wall seconds=%.4f (median %.4f)\n", setupBoots, setups, setupWalls, median(setupWalls))

	vf := newVerifier(fx, w)
	tgt := newTarget(d.base, d.cmd.Process.Pid, nil)
	p := newPhase()
	warm(tgt, w, p)
	pid := d.cmd.Process.Pid
	srvCPU0, cliCPU0 := cpuTime(pid), cpuTime(os.Getpid())
	steal0, total0 := cpuTicks()
	runPhase(tgt, w, p, time.Duration(cfg.seconds)*time.Second, true)
	srvCPU, cliCPU := cpuTime(pid)-srvCPU0, cpuTime(os.Getpid())-cliCPU0
	steal1, total1 := cpuTicks()
	rss, rssErr := statusMB(pid, "VmHWM")
	lat := latencies(p.samples)
	pos := byPosition(p.samples)
	posCPU := cpuMS(pos)
	repLo, repHi := repetitions(p.samples)
	fmt.Printf("phase untraced (f0d process): attempted=%d failed=%d (%.2f%%) elapsed=%.3f s, %d ring positions timed %d..%d times each\n",
		p.attempted, p.failed, 100*float64(p.failed)/float64(max(p.attempted, 1)), p.elapsed.Seconds(), len(pos), repLo, repHi)
	for _, e := range p.errs {
		fmt.Println("failure:", e)
	}
	fmt.Println("client latency, all timed ops:")
	for _, line := range modeReport(p.samples, lat) {
		fmt.Println(line)
	}
	fmt.Println("f0d CPU per op, median repetition of each ring position (the reported percentiles):")
	for _, line := range modeReport(pos, posCPU) {
		fmt.Println(line)
	}
	correct := true
	if ok, err := verifyPhase(vf, tgt, p, "untraced"); err != nil {
		d.stop()
		return nil, err
	} else if !ok {
		correct = false
	}
	tgt.close()
	d.stop()
	if rssErr != nil || p.attempted == 0 || len(lat) == 0 {
		return nil, fmt.Errorf("no measurement: %d ops attempted, rss error %v", p.attempted, rssErr)
	}

	fmt.Printf("f0d cpu, whole timed phase: %.4g ops per cpu second, garbage collection and idle work included\n",
		float64(p.attempted)/srvCPU.Seconds())
	wallOps, wallP50, wallP90 := wallStats(p)
	fmt.Printf("client side, all timed ops: ops_per_s=%.4g p50_ms=%.4g p90_ms=%.4g\n", wallOps, wallP50, wallP90)
	e2e := map[string]float64{
		"wall_ops_per_s": wallOps, "wall_p50_ms": wallP50, "wall_p90_ms": wallP90,
		"setup_s":       median(setups),
		"ops_per_cpu_s": opsPerCPUSecond(pos),
		"cpu_p50_ms":    quantile(posCPU, 0.5),
		"cpu_p90_ms":    quantile(posCPU, 0.9),
		"server_rss_mb": rss,
	}
	perOp := func(cpu time.Duration) float64 { return float64(cpu.Microseconds()) / float64(p.attempted) }
	fmt.Printf("cpu: f0d=%.1f us/op client=%.1f us/op over %d ops (client share %.0f%%); host steal %.1f%% of vCPU time\n",
		perOp(srvCPU), perOp(cliCPU), p.attempted, 100*float64(cliCPU)/float64(max(cliCPU+srvCPU, 1)),
		100*float64(steal1-steal0)/float64(max(total1-total0, 1)))

	res := &result{Correct: correct, Attempted: p.attempted, Failed: p.failed, Metrics: map[string]metricValue{}}
	if !cfg.trace {
		r := &report{defs: endToEnd, metrics: res.Metrics}
		r.set("setup_s", e2e["setup_s"], len(setups), "")
		note := fmt.Sprintf(" (median of %d+ repetitions of each of %d ring positions)", repLo, len(pos))
		r.set("ops_per_cpu_s", e2e["ops_per_cpu_s"], p.attempted, note)
		r.set("cpu_p50_ms", e2e["cpu_p50_ms"], len(p.samples), note)
		r.set("cpu_p90_ms", e2e["cpu_p90_ms"], len(p.samples), note)
		r.set("server_rss_mb", e2e["server_rss_mb"], 1, " (VmHWM)")
		return res, nil
	}

	r := &report{defs: perLayer, metrics: res.Metrics}
	r.set("f0d.cpu_us_per_op", perOp(srvCPU), p.attempted, "")
	r.set("client.cpu_us_per_op", perOp(cliCPU), p.attempted, "")
	tp, ok, err := tracedRun(cfg, work, fx, w, vf, r, p, e2e)
	if err != nil {
		return nil, err
	}
	res.Correct = res.Correct && ok
	res.Attempted += tp.attempted
	res.Failed += tp.failed
	if self, err := statusMB(os.Getpid(), "VmHWM"); err == nil {
		fmt.Printf("perfbench peak RSS: %.0f MB\n", self)
	}
	return res, nil
}

// wallStats returns a timed phase's client-side throughput and latency
// percentiles over all its ops.
func wallStats(p *phase) (opsPerS, p50, p90 float64) {
	lat := latencies(p.samples)
	return float64(len(lat)) / p.elapsed.Seconds(), quantile(lat, 0.5), quantile(lat, 0.9)
}

// warm runs the untimed warm-up: at least warmUp, and at least one pass
// over the op ring, so that every timed op repeats one already served.
func warm(t *target, w *workload, p *phase) {
	for {
		runPhase(t, w, p, warmUp, false)
		if p.executed >= int64(len(w.ring)) {
			return
		}
	}
}

// verifyPhase runs the correctness gate on one phase's results.
func verifyPhase(vf *verifier, t *target, p *phase, label string) (bool, error) {
	n, bad, err := vf.checkSketches(t, p)
	if err != nil {
		return false, err
	}
	nc, badc, err := vf.checkCounts(p)
	if err != nil {
		return false, err
	}
	bad = append(bad, badc...)
	for _, b := range bad {
		fmt.Println("MISMATCH:", b)
	}
	fmt.Printf("correctness %s: %d sketch estimates vs serial replay, %d counts vs in-process count, %d mismatches\n",
		label, n, nc, len(bad))
	return len(bad) == 0, nil
}

// tracedRun hosts the server in-process, reruns the workload with request
// and serve spans, replays a prefix of the same op stream (plus a probe
// covering op kinds the workload lacks) into each lower rung, and sets
// the per-layer metrics.
func tracedRun(cfg config, work string, fx []fixtureSketch, w *workload, vf *verifier, r *report, up *phase, e2e map[string]float64) (*phase, bool, error) {
	fixDir := filepath.Join(work, "fixture")
	fresh := func(name string) (string, error) {
		dir := filepath.Join(work, name)
		return dir, freshCopy(fixDir, dir)
	}
	tr := newTracer()
	var restores []float64
	var ip *inproc
	for b := 0; b < restoreReps; b++ {
		dir, err := fresh(fmt.Sprintf("inproc%d", b))
		if err != nil {
			return nil, false, err
		}
		p, restore, err := startInproc(dir, tr)
		if err != nil {
			return nil, false, err
		}
		restores = append(restores, float64(restore)/float64(time.Millisecond))
		if b < restoreReps-1 {
			p.close()
		} else {
			ip = p
		}
	}
	tgt := newTarget(ip.base, 0, tr)
	tp := newPhase()
	warm(tgt, w, tp)
	runPhase(tgt, w, tp, time.Duration(cfg.seconds)*time.Second, true)
	ok, err := verifyPhase(vf, tgt, tp, "traced")
	tgt.close()
	ip.close()
	if err != nil {
		return nil, false, err
	}
	if len(tp.samples) == 0 {
		return nil, false, fmt.Errorf("traced phase completed no ops")
	}
	fmt.Printf("phase traced (in-process server): attempted=%d failed=%d elapsed=%.3f s\n", tp.attempted, tp.failed, tp.elapsed.Seconds())
	ops, p50, p90 := wallStats(tp)
	fmt.Printf("tracing overhead (traced in-process minus untraced f0d, client side): ops_per_s %+.1f, p50_ms %+.4f, p90_ms %+.4f\n",
		ops-e2e["wall_ops_per_s"], p50-e2e["wall_p50_ms"], p90-e2e["wall_p90_ms"])
	reqs, serves := tr.byID("request"), tr.byID("serve")
	for k := opKind(0); k < numKinds; k++ {
		var ids []int64
		for _, s := range tp.samples {
			if s.kind == k {
				ids = append(ids, s.id)
			}
		}
		if len(ids) > 0 {
			fmt.Printf("traced phase %-8s n=%-6d median request=%.1f us serve=%.1f us net=%.1f us\n", kindNames[k], len(ids),
				median(durs(reqs, ids))/1e3, median(durs(serves, ids))/1e3, median(diffs(reqs, serves, ids))/1e3)
		}
	}

	// The ladder: the traced phase's stream prefix, then the probe.
	lad := &ladder{fx: fx, tr: newTracer(), formulas: w.formulas}
	n := min(tp.executed, int64(w.ladderOps))
	for i := int64(0); i < n; i++ {
		lad.ops = append(lad.ops, w.ring[i%int64(len(w.ring))])
		lad.probe = append(lad.probe, false)
	}
	probe, probeFormulas := probeOps(cfg.seed, fx)
	if len(lad.formulas) < len(probeFormulas) {
		lad.formulas = probeFormulas
	}
	for _, o := range probe {
		lad.ops = append(lad.ops, o)
		lad.probe = append(lad.probe, true)
	}
	if lad.blobs, err = fixtureBlobs(fixDir, fx); err != nil {
		return nil, false, err
	}
	httpDir, err := fresh("ladder-http")
	if err != nil {
		return nil, false, err
	}
	stateDir, err := fresh("ladder-state")
	if err != nil {
		return nil, false, err
	}
	hp, err := lad.run(httpDir, stateDir)
	if err != nil {
		return nil, false, err
	}
	ingestOp := lad.ops[lad.pick(kindIngest, nil)[0]]
	estOp := lad.ops[lad.pick(kindEstimate, nil)[0]]
	ingestAllocs := allocsPerRequest(hp.srv.Handler(), &ingestOp, allocSamples)
	estAllocs := allocsPerRequest(hp.srv.Handler(), &estOp, allocSamples)
	hp.close()
	var decodes []float64
	for rep := 0; rep < restoreReps; rep++ {
		t0 := time.Now()
		for _, b := range lad.blobs {
			if _, err := mcf0.DecodeConcurrentF0(b, sketchReplicas); err != nil {
				return nil, false, err
			}
		}
		decodes = append(decodes, float64(time.Since(t0))/float64(time.Millisecond))
	}

	sp := func(name string) map[int64]span { return lad.tr.byID(name) }
	req, serve := sp("request"), sp("serve")
	rung := map[opKind]map[int64]span{
		kindIngest: sp("state.add"), kindEstimate: sp("state.estimate"),
		kindSnapshot: sp("state.snapshot"), kindCount: sp("counting.count"),
	}
	const us, ms = 1e3, 1e6
	for k := opKind(0); k < numKinds; k++ {
		ids := lad.pick(k, nil)
		src := ""
		if lad.probe[ids[0]] {
			src = " (probe: workload has no " + kindNames[k] + " ops)"
		}
		r.set("net."+kindNames[k]+"_us", median(diffs(req, serve, ids))/us, len(ids), src)
		r.set("serve."+kindNames[k]+"_us", median(diffs(serve, rung[k], ids))/us, len(ids), src)
	}
	r.set("serve.ingest_allocs", ingestAllocs, allocSamples, "")
	r.set("serve.estimate_allocs", estAllocs, allocSamples, " (cache-hit path)")

	adds := lad.pick(kindIngest, nil)
	r.set("state.add_us", median(durs(rung[kindIngest], adds))/us, len(adds), "")
	hits := lad.pick(kindEstimate, func(i int64) bool { return lad.estCached[i] })
	misses := lad.pick(kindEstimate, func(i int64) bool { return !lad.estCached[i] })
	r.set("state.estimate_hit_us", median(durs(rung[kindEstimate], hits))/us, len(hits), "")
	r.set("state.estimate_miss_us", median(durs(rung[kindEstimate], misses))/us, len(misses), "")
	if up.estimates > 0 {
		r.set("state.estimate_cache_hit_ratio", float64(up.hits)/float64(up.estimates), up.estimates, " (untraced responses)")
	} else {
		ests := lad.pick(kindEstimate, nil)
		h := 0
		for _, id := range ests {
			if lad.httpCached[id] {
				h++
			}
		}
		r.set("state.estimate_cache_hit_ratio", float64(h)/float64(len(ests)), len(ests), " (probe responses)")
	}
	snaps := lad.pick(kindSnapshot, nil)
	snapMS := median(durs(rung[kindSnapshot], snaps)) / ms
	marshalUS := median(durs(sp("wire.marshal"), snaps)) / us
	r.set("state.snapshot_ms", snapMS, len(snaps), "")
	r.set("state.persist_ms", snapMS-marshalUS/1e3, len(snaps), " (snapshot minus marshal)")
	r.set("state.restore_ms", median(restores), len(restores), " (server.New)")

	frontAdd, sketchAdd := sp("front.add"), sp("sketch.add")
	perElem := func(spans map[int64]span) []float64 {
		var out []float64
		for _, id := range adds {
			if s, ok := spans[id]; ok {
				out = append(out, float64(s.dur())/float64(len(lad.ops[id].elems)))
			}
		}
		return out
	}
	r.set("front.add_ns_per_elem", median(perElem(frontAdd)), len(adds), "")
	merges := lad.pick(kindEstimate, func(i int64) bool { return lad.merged[i] })
	r.set("front.merge_us", median(durs(sp("front.estimate"), merges))/us, len(merges), "")
	r.set("front.words", float64(lad.words), fixtureSketches, " (summed SketchWords of the fixture)")
	r.set("sketch.add_ns_per_elem", median(perElem(sketchAdd)), len(adds), " (plain F0, parallelism 1)")
	r.set("wire.marshal_us", marshalUS, len(snaps), "")
	var sizes []float64
	for _, id := range snaps {
		sizes = append(sizes, float64(lad.snapBytes[id]))
	}
	r.set("wire.snapshot_bytes", median(sizes), len(sizes), "")
	r.set("wire.decode_ms", median(decodes), len(decodes), fmt.Sprintf(" (all %d fixture blobs)", len(lad.blobs)))

	counts := lad.pick(kindCount, nil)
	countSpans := rung[kindCount]
	var countMS []float64
	var sumMS, oq, dec, props, confl float64
	for _, id := range counts {
		c := lad.counts[id]
		t := float64(countSpans[id].dur()) / ms
		countMS = append(countMS, t)
		sumMS += t
		oq += float64(c.OracleQueries)
		dec += float64(c.Solver.Decisions)
		props += float64(c.Solver.Propagations)
		confl += float64(c.Solver.Conflicts)
	}
	nc := float64(len(counts))
	r.set("counting.count_ms", median(countMS), len(counts), "")
	r.set("counting.oracle_queries", oq/nc, len(counts), " (mean per count)")
	r.set("sat.decisions", dec/nc, len(counts), " (mean per count)")
	r.set("sat.propagations", props/nc, len(counts), " (mean per count)")
	r.set("sat.conflicts", confl/nc, len(counts), " (mean per count)")
	r.set("sat.props_per_ms", props/sumMS, len(counts), "")

	fmt.Printf("setup breakdown: setup_s=%.4f s of f0d CPU; in process, server.New takes state.restore_ms=%.1f (%.0f%% of setup_s) and decoding the fixture wire.decode_ms=%.1f (%.0f%%), both wall-clock\n",
		e2e["setup_s"], median(restores), median(restores)/10/e2e["setup_s"], median(decodes), median(decodes)/10/e2e["setup_s"])
	traces := filepath.Join(filepath.Dir(filepath.Dir(work)), "traces")
	if err := os.MkdirAll(traces, 0o755); err == nil {
		lad.tr.writeJSONL(filepath.Join(traces, w.name+"-ladder.jsonl"))
		tr.writeJSONL(filepath.Join(traces, w.name+"-phase.jsonl"))
		fmt.Printf("spans: %d ladder + %d phase spans written to %s\n", len(lad.tr.spans), len(tr.spans), traces)
	}
	return tp, ok, nil
}

// commitStamp names the revision measured: the git commit when the
// checkout is a repository, else a hash of its Go sources.
func commitStamp(root string) string {
	if out, err := exec.Command("git", "-C", root, "rev-parse", "--short=12", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	var files []string
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err == nil {
			rel, _ := filepath.Rel(root, f)
			fmt.Fprintf(h, "%s %d\n", rel, len(b))
			h.Write(b)
		}
	}
	return "tree-" + hex.EncodeToString(h.Sum(nil))[:12]
}
