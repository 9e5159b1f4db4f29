package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"time"
)

// idHeader carries the op's sequence number to the traced in-process
// server, linking its serve span to the client's request span.
const idHeader = "X-Perfbench-Id"

// target is an f0d endpoint driven over HTTP by one client on one
// connection.
type target struct {
	base   string
	client *http.Client
	tr     *tracer // nil: untraced
	srv    int     // pid of the f0d process charged with each op's CPU time; 0: none
}

func newTarget(base string, srv int, tr *tracer) *target {
	return &target{base: base, srv: srv, tr: tr, client: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
	}}}
}

func (t *target) close() { t.client.CloseIdleConnections() }

// reply holds the response fields the benchmark checks.
type reply struct {
	Ingested      *int     `json:"ingested"`
	Estimate      *float64 `json:"estimate"`
	Cached        *bool    `json:"cached"`
	Bytes         *int     `json:"bytes"`
	OracleQueries *int64   `json:"oracle_queries"`
}

// do sends one op and checks the response's shape: any transport error,
// non-2xx status or undecodable body is a failure.
func (t *target) do(o *op, id int64) (reply, error) {
	var rep reply
	req, err := http.NewRequest(o.method, t.base+o.path, bytes.NewReader(o.body))
	if err != nil {
		return rep, err
	}
	req.Header.Set("Authorization", "Bearer "+tenantToken(o.tenant))
	if o.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if t.tr != nil {
		req.Header.Set(idHeader, strconv.FormatInt(id, 10))
	}
	resp, err := t.client.Do(req)
	if err != nil {
		return rep, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return rep, err
	}
	if resp.StatusCode/100 != 2 {
		return rep, fmt.Errorf("%s %s: status %d: %s", o.method, o.path, resp.StatusCode, bytes.TrimSpace(body))
	}
	if err := json.Unmarshal(body, &rep); err != nil {
		return rep, fmt.Errorf("%s %s: undecodable body: %v", o.method, o.path, err)
	}
	switch {
	case o.kind == kindIngest && (rep.Ingested == nil || *rep.Ingested != len(o.elems)):
		err = fmt.Errorf("%s: ingested count missing or wrong", o.path)
	case o.kind == kindEstimate && (rep.Estimate == nil || rep.Cached == nil):
		err = fmt.Errorf("%s: estimate or cached missing", o.path)
	case o.kind == kindSnapshot && (rep.Bytes == nil || *rep.Bytes <= 0):
		err = fmt.Errorf("%s: snapshot bytes missing", o.path)
	case o.kind == kindCount && (rep.Estimate == nil || rep.OracleQueries == nil):
		err = fmt.Errorf("%s: estimate or oracle_queries missing", o.path)
	}
	return rep, err
}

// sample is one timed op.
type sample struct {
	id   int64
	pos  int // position in the workload's op ring
	kind opKind
	mode string
	lat  time.Duration
	cpu  time.Duration // f0d CPU time from request to response
}

// modeOf names the latency mode an op belongs to.
func modeOf(o *op, rep reply) string {
	switch o.kind {
	case kindEstimate:
		if *rep.Cached {
			return "estimate-hit"
		}
		return "estimate-miss"
	case kindCount:
		return fmt.Sprintf("formula-%02d", o.formula)
	}
	return kindNames[o.kind]
}

// phase is the outcome of one closed-loop run.
type phase struct {
	samples   []sample // timed ops that succeeded
	attempted int      // timed ops
	failed    int      // timed ops that failed
	errs      []string // first few failures (warm-up included)
	elapsed   time.Duration
	executed  int64          // stream prefix sent, warm-up included
	failedIDs map[int64]bool // failed ops, warm-up included
	counts    map[int][]reply
	hits      int
	estimates int
}

func newPhase() *phase { return &phase{failedIDs: map[int64]bool{}, counts: map[int][]reply{}} }

// runPhase drives w's op stream closed-loop for dur from one client,
// continuing where p's previous phase stopped: the client sends its next
// op only after the previous one completed. Only a timed phase adds
// samples; every phase adds to the correctness record.
func runPhase(t *target, w *workload, p *phase, dur time.Duration, timed bool) {
	start := time.Now()
	end := start.Add(dur)
	var lastEnd time.Time
	for id := p.executed; ; id++ {
		var c0, c1 time.Duration
		if t.srv != 0 {
			c0 = cpuTime(t.srv)
		}
		t0 := time.Now()
		if !t0.Before(end) {
			p.executed = id
			break
		}
		o := &w.ring[id%int64(len(w.ring))]
		rep, err := t.do(o, id)
		t1 := time.Now()
		if t.srv != 0 {
			c1 = cpuTime(t.srv)
		}
		if t.tr != nil {
			t.tr.record("request", "", id, t0, t1)
		}
		if err != nil {
			p.failedIDs[id] = true
			if len(p.errs) < 5 {
				p.errs = append(p.errs, err.Error())
			}
		} else if o.kind == kindCount {
			p.counts[o.formula] = append(p.counts[o.formula], rep)
		}
		if !timed {
			continue
		}
		p.attempted++
		lastEnd = t1
		if err != nil {
			p.failed++
			continue
		}
		if o.kind == kindEstimate {
			p.estimates++
			if *rep.Cached {
				p.hits++
			}
		}
		p.samples = append(p.samples, sample{id: id, pos: int(id % int64(len(w.ring))), kind: o.kind, mode: modeOf(o, rep), lat: t1.Sub(t0), cpu: c1 - c0})
	}
	if timed {
		p.elapsed = lastEnd.Sub(start)
	}
}

// quantile returns the q-quantile of sorted xs by linear interpolation
// between closest ranks.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// byPosition returns one sample per ring position: of the position's
// timed repetitions, the one with the median f0d CPU time. With one client every repetition of a position does the
// same work: the same request against the same state, since re-adding a
// batch costs what the first add cost and the add before an estimate
// always invalidates its cache.
func byPosition(ss []sample) []sample {
	reps := map[int][]sample{}
	for _, s := range ss {
		reps[s.pos] = append(reps[s.pos], s)
	}
	out := make([]sample, 0, len(reps))
	for _, r := range reps {
		sort.Slice(r, func(a, b int) bool { return r[a].cpu < r[b].cpu })
		out = append(out, r[len(r)/2])
	}
	return out
}

// opsPerCPUSecond returns how many ops f0d serves per second of its CPU
// time when one client sends the ring once, each op costing its
// position's median. A garbage collection cycle of a heap this size costs
// as much as many ops and lands in a run a small whole number of times,
// so counting the phase's whole CPU time instead would make the figure
// jump between runs.
func opsPerCPUSecond(pos []sample) float64 {
	var sum time.Duration
	for _, s := range pos {
		sum += s.cpu
	}
	return float64(len(pos)) / sum.Seconds()
}

// repetitions returns the fewest and the most timed repetitions of any
// ring position.
func repetitions(ss []sample) (lo, hi int) {
	n := map[int]int{}
	for _, s := range ss {
		n[s.pos]++
	}
	lo = math.MaxInt
	for _, c := range n {
		lo, hi = min(lo, c), max(hi, c)
	}
	return lo, hi
}

// cpuMS returns the samples' f0d CPU times in ms, sorted, with the
// samples reordered to match.
func cpuMS(ss []sample) []float64 {
	sort.Slice(ss, func(a, b int) bool { return ss[a].cpu < ss[b].cpu })
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = float64(s.cpu) / float64(time.Millisecond)
	}
	return out
}

// latencies returns the samples' latencies in ms, sorted, with the
// samples reordered to match.
func latencies(ss []sample) []float64 {
	sort.Slice(ss, func(a, b int) bool { return ss[a].lat < ss[b].lat })
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = float64(s.lat) / float64(time.Millisecond)
	}
	return out
}

// modeReport prints each latency mode's share of ops, its median, and
// the span of ranks it covers, then names the mode at the p50 and p90
// ranks, so a reader can see that each percentile sits inside a mode.
func modeReport(ss []sample, lat []float64) []string {
	type modeStat struct {
		n         int
		lat       []float64
		firstRank int
		lastRank  int
	}
	stats := map[string]*modeStat{}
	var names []string
	for i, s := range ss {
		m := stats[s.mode]
		if m == nil {
			m = &modeStat{firstRank: i}
			stats[s.mode] = m
			names = append(names, s.mode)
		}
		m.n++
		m.lat = append(m.lat, lat[i])
		m.lastRank = i
	}
	sort.Strings(names)
	n := float64(len(ss))
	var out []string
	for _, name := range names {
		m := stats[name]
		out = append(out, fmt.Sprintf("mode %-14s share=%5.1f%% n=%-6d median=%.3f ms ranks=%.1f%%..%.1f%%",
			name, 100*float64(m.n)/n, m.n, median(m.lat), 100*float64(m.firstRank)/n, 100*float64(m.lastRank+1)/n))
	}
	for _, q := range []float64{0.5, 0.9} {
		i := int(q * float64(len(ss)-1))
		out = append(out, fmt.Sprintf("p%.0f rank falls in mode %s", 100*q, ss[i].mode))
	}
	return out
}
