package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strconv"
	"sync"
	"time"

	"mcf0"
	"mcf0/internal/server"
	"mcf0/internal/server/middleware"
	"mcf0/internal/server/state"
)

// span is one timed call at a layer boundary. Spans of one op share its
// id; Parent names the layer that made the call.
type span struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	base  time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

func (t *tracer) record(name, parent string, id int64, start, end time.Time) {
	t.mu.Lock()
	t.spans = append(t.spans, span{name, id, parent, start.Sub(t.base).Nanoseconds(), end.Sub(t.base).Nanoseconds()})
	t.mu.Unlock()
}

// byID indexes the spans called name by op id.
func (t *tracer) byID(name string) map[int64]span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := map[int64]span{}
	for _, s := range t.spans {
		if s.Name == name {
			out[s.ID] = s
		}
	}
	return out
}

func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func serverConfig(dataDir string) server.Config {
	var tenants []middleware.TenantConfig
	for t := 0; t < fixtureTenants; t++ {
		tenants = append(tenants, middleware.TenantConfig{Name: tenantName(t), Token: tenantToken(t)})
	}
	return server.Config{Tenants: tenants, DataDir: dataDir, Logf: func(string, ...any) {}}
}

// inproc hosts server.New(cfg).Handler() in this process behind the
// benchmark's own listener and a wrapper that records a serve span per
// request.
type inproc struct {
	srv  *server.Server
	hs   *http.Server
	base string
	done chan struct{}
}

// startInproc restores a server over dataDir, timing server.New.
func startInproc(dataDir string, tr *tracer) (*inproc, time.Duration, error) {
	t0 := time.Now()
	srv, err := server.New(serverConfig(dataDir))
	restore := time.Since(t0)
	if err != nil {
		return nil, 0, err
	}
	h := srv.Handler()
	wrapped := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		h.ServeHTTP(w, r)
		if id, err := strconv.ParseInt(r.Header.Get(idHeader), 10, 64); err == nil {
			tr.record("serve", "request", id, t0, time.Now())
		}
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	p := &inproc{srv: srv, hs: &http.Server{Handler: wrapped}, base: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(p.done)
		p.hs.Serve(ln)
	}()
	return p, restore, nil
}

func (p *inproc) close() {
	p.hs.Close()
	<-p.done
}

// ladder replays one op list serially into each rung from the HTTP
// handler down. The rungs take each op in turn (HTTP, then state or
// counting, then front, then sketch) before the next op starts, so
// machine noise hits all rungs alike; spans of one op share its index,
// and a rung's self time is its span minus the next rung's span.
type ladder struct {
	fx       []fixtureSketch
	blobs    [][]byte
	formulas []formula
	ops      []op
	probe    []bool // probe[i]: ops[i] came from the probe, not the workload
	tr       *tracer

	estCached  map[int64]bool // state rung: estimate i was a cache hit
	httpCached map[int64]bool // HTTP rung: estimate i answered cached
	merged     map[int64]bool // front rung: estimate i merged replicas
	snapBytes  map[int64]int
	counts     map[int64]mcf0.CountResult
	words      int
}

// pick returns the ops of kind k that satisfy keep, preferring the
// workload's own ops and falling back to the probe's.
func (l *ladder) pick(k opKind, keep func(i int64) bool) []int64 {
	var own, probe []int64
	for i, o := range l.ops {
		if o.kind != k || (keep != nil && !keep(int64(i))) {
			continue
		}
		if l.probe[i] {
			probe = append(probe, int64(i))
		} else {
			own = append(own, int64(i))
		}
	}
	if len(own) > 0 {
		return own
	}
	return probe
}

// run replays the ops: through a server restored from httpDir (returned,
// still serving, for the allocation counts), into a registry restored
// from stateDir, into ConcurrentF0 fronts and plain F0 sketches decoded
// from the fixture blobs, and count ops into mcf0.CountCNFClauses.
func (l *ladder) run(httpDir, stateDir string) (*inproc, error) {
	reg := state.NewRegistry(stateDir)
	if _, err := reg.Load(); err != nil {
		return nil, err
	}
	for _, sk := range reg.All() {
		l.words += sk.SketchWords()
	}
	p, _, err := startInproc(httpDir, l.tr)
	if err != nil {
		return nil, err
	}
	t := newTarget(p.base, 0, l.tr)
	defer t.close()
	l.estCached, l.httpCached, l.merged = map[int64]bool{}, map[int64]bool{}, map[int64]bool{}
	l.snapBytes, l.counts = map[int64]int{}, map[int64]mcf0.CountResult{}
	fronts := map[int]*mcf0.ConcurrentF0{}
	plain := map[int]*mcf0.F0{}
	lastV := map[int]uint64{}
	for i := range l.ops {
		o, id := &l.ops[i], int64(i)
		t0 := time.Now()
		rep, err := t.do(o, id)
		l.tr.record("request", "", id, t0, time.Now())
		if err != nil {
			p.close()
			return nil, fmt.Errorf("ladder HTTP rung op %d: %w", i, err)
		}
		if o.kind == kindEstimate {
			l.httpCached[id] = *rep.Cached
		}
		if o.kind == kindCount {
			err = l.stepCount(o, id)
		} else {
			err = l.stepState(reg, o, id)
			if err == nil {
				err = l.stepFront(fronts, plain, lastV, o, id)
			}
		}
		if err != nil {
			p.close()
			return nil, fmt.Errorf("ladder op %d: %w", i, err)
		}
	}
	return p, nil
}

func (l *ladder) stepCount(o *op, id int64) error {
	f := l.formulas[o.formula]
	t0 := time.Now()
	res, err := mcf0.CountCNFClauses(f.N, f.Clauses, mcf0.AlgorithmBucketing, mcf0.Config{Seed: f.Seed})
	l.tr.record("counting.count", "serve", id, t0, time.Now())
	l.counts[id] = res
	return err
}

func (l *ladder) stepState(reg *state.Registry, o *op, id int64) error {
	sk, err := reg.Get(tenantName(o.tenant), l.fx[o.sketch].Name)
	if err != nil {
		return err
	}
	t0 := time.Now()
	switch o.kind {
	case kindIngest:
		sk.AddBatch(o.elems)
		l.tr.record("state.add", "serve", id, t0, time.Now())
	case kindEstimate:
		_, _, cached := sk.Estimate()
		l.tr.record("state.estimate", "serve", id, t0, time.Now())
		l.estCached[id] = cached
	case kindSnapshot:
		_, err = reg.Snapshot(sk)
		l.tr.record("state.snapshot", "serve", id, t0, time.Now())
	}
	return err
}

// stepFront replays a sketch op into the ConcurrentF0 front (AddBatch,
// Estimate, MarshalBinary) and an add into a plain serial F0 of the same
// state (the sketch rung).
func (l *ladder) stepFront(fronts map[int]*mcf0.ConcurrentF0, plain map[int]*mcf0.F0, lastV map[int]uint64, o *op, id int64) error {
	f := fronts[o.sketch]
	if f == nil {
		var err error
		if f, err = mcf0.DecodeConcurrentF0(l.blobs[o.sketch], sketchReplicas); err != nil {
			return err
		}
		if plain[o.sketch], err = mcf0.DecodeF0(l.blobs[o.sketch], 1); err != nil {
			return err
		}
		fronts[o.sketch] = f
	}
	switch o.kind {
	case kindIngest:
		t0 := time.Now()
		f.AddBatch(o.elems)
		l.tr.record("front.add", "state", id, t0, time.Now())
		t0 = time.Now()
		plain[o.sketch].AddBatch(o.elems)
		l.tr.record("sketch.add", "front", id, t0, time.Now())
	case kindEstimate:
		v := f.Version()
		last, seen := lastV[o.sketch]
		t0 := time.Now()
		f.Estimate()
		l.tr.record("front.estimate", "state", id, t0, time.Now())
		l.merged[id] = !seen || last != v
		lastV[o.sketch] = v
	case kindSnapshot:
		t0 := time.Now()
		blob, err := f.MarshalBinary()
		l.tr.record("wire.marshal", "state", id, t0, time.Now())
		if err != nil {
			return err
		}
		l.snapBytes[id] = len(blob)
	}
	return nil
}

// allocsPerRequest counts heap allocations per request served by h on an
// httptest recorder, with requests and recorders built beforehand.
func allocsPerRequest(h http.Handler, o *op, n int) float64 {
	reqs := make([]*http.Request, n)
	recs := make([]*httptest.ResponseRecorder, n)
	for i := range reqs {
		reqs[i] = httptest.NewRequest(o.method, o.path, bytes.NewReader(o.body))
		reqs[i].Header.Set("Authorization", "Bearer "+tenantToken(o.tenant))
		recs[i] = httptest.NewRecorder()
	}
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(o.method, o.path, bytes.NewReader(o.body)))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := range reqs {
		h.ServeHTTP(recs[i], reqs[i])
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(n)
}

func durs(spans map[int64]span, ids []int64) []float64 {
	out := make([]float64, 0, len(ids))
	for _, id := range ids {
		if s, ok := spans[id]; ok {
			out = append(out, float64(s.dur()))
		}
	}
	return out
}

// diffs returns outer[id] − inner[id] per op, in ns.
func diffs(outer, inner map[int64]span, ids []int64) []float64 {
	out := make([]float64, 0, len(ids))
	for _, id := range ids {
		a, ok1 := outer[id]
		b, ok2 := inner[id]
		if ok1 && ok2 {
			out = append(out, float64(a.dur()-b.dur()))
		}
	}
	return out
}
