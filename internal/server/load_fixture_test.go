package server_test

// The seeded load fixture behind the invariant 8 and 9 guards: an op
// generator whose op i is a pure function of (spec, i), a runner that
// hands op indices to concurrent clients from one atomic counter, and
// two targets — the in-process concurrent front and a live f0d reached
// through a retrying HTTP client.
//
// Workers claim indices from one counter, so every op runs exactly once
// however clients are scheduled, and the set of ingested elements (hence
// the final estimate, by the partition-independence of invariant 2) is
// the same across runs, client counts and targets.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mcf0"
	"mcf0/internal/stats"
)

// opKind enumerates the generated operation kinds.
type opKind uint8

// The operation kinds of a mixed workload.
const (
	opIngest opKind = iota
	opEstimate
	opSnapshot
	numOpKinds
)

func (k opKind) String() string { return [...]string{"ingest", "estimate", "snapshot"}[k] }

// loadSpec is one replayable workload: every field participates in op
// generation, so equal specs generate identical op sequences.
type loadSpec struct {
	// Seed keys all generation randomness (op kinds, elements).
	Seed uint64
	// Ops is the total operation count.
	Ops int
	// Clients is the number of concurrent workers issuing ops.
	Clients int
	// Bits is the element-universe width (1–64); generated elements are
	// < 2^Bits, matching the target sketch's universe.
	Bits int
	// Batch is the number of elements per ingest op.
	Batch int
	// IngestWeight, EstimateWeight and SnapshotWeight set the op mix;
	// only their ratios matter, and they must sum > 0.
	IngestWeight, EstimateWeight, SnapshotWeight float64
	// Keys bounds the hot-key space: elements are drawn from Keys
	// distinct keys scattered over the universe. 0 means 2^min(Bits,63).
	Keys uint64
	// ZipfS is the Zipf skew over the key space; 0 selects the uniform
	// distribution, otherwise it must be > 1.
	ZipfS float64
}

// Validate reports the first structural problem with the spec.
func (s *loadSpec) Validate() error {
	switch {
	case s.Ops <= 0:
		return fmt.Errorf("ops %d must be positive", s.Ops)
	case s.Clients <= 0:
		return fmt.Errorf("clients %d must be positive", s.Clients)
	case s.Bits < 1 || s.Bits > 64:
		return fmt.Errorf("universe width %d out of [1,64]", s.Bits)
	case s.Batch <= 0:
		return fmt.Errorf("batch %d must be positive", s.Batch)
	case s.IngestWeight < 0 || s.EstimateWeight < 0 || s.SnapshotWeight < 0:
		return fmt.Errorf("op-mix weights must be non-negative")
	case s.IngestWeight+s.EstimateWeight+s.SnapshotWeight <= 0:
		return fmt.Errorf("op-mix weights sum to zero")
	case s.ZipfS != 0 && s.ZipfS <= 1:
		return fmt.Errorf("zipf skew %g must be 0 (uniform) or > 1", s.ZipfS)
	}
	return nil
}

// keySpace resolves the hot-key count.
func (s *loadSpec) keySpace() uint64 {
	if s.Keys > 0 {
		return s.Keys
	}
	return uint64(1) << uint(min(s.Bits, 63))
}

// Kind returns op i's kind: one uniform draw keyed by (seed, index)
// picks it by cumulative weight.
func (s *loadSpec) Kind(i int) opKind {
	total := s.IngestWeight + s.EstimateWeight + s.SnapshotWeight
	u := float64(stats.Mix64((s.Seed^0xa5a5a5a5a5a5a5a5^uint64(i))+0x9e3779b97f4a7c15)>>11) / (1 << 53)
	x := u * total
	if x < s.IngestWeight {
		return opIngest
	}
	if x < s.IngestWeight+s.EstimateWeight {
		return opEstimate
	}
	return opSnapshot
}

// Elements fills dst with op i's ingest batch and returns it sliced to
// Batch, reusing dst's storage when it is large enough.
func (s *loadSpec) Elements(i int, dst []uint64) []uint64 {
	if cap(dst) < s.Batch {
		dst = make([]uint64, s.Batch)
	}
	dst = dst[:s.Batch]
	rng := rand.New(rand.NewPCG(s.Seed, uint64(i)))
	keys := s.keySpace()
	var zipf *rand.Zipf
	if s.ZipfS > 1 {
		zipf = rand.NewZipf(rng, s.ZipfS, 1, keys-1)
	}
	mask := ^uint64(0)
	if s.Bits < 64 {
		mask = uint64(1)<<uint(s.Bits) - 1
	}
	for j := range dst {
		var key uint64
		if zipf != nil {
			key = zipf.Uint64()
		} else {
			key = rng.Uint64N(keys)
		}
		// Scatter the key through the universe with a fixed mixing
		// function so hot keys are not clustered at small values.
		dst[j] = stats.Mix64(s.Seed+0x517cc1b727220a95+key+0x9e3779b97f4a7c15) & mask
	}
	return dst
}

// IngestedElements returns the union stream of every ingest op in op
// order: the stream a serial reference sketch replays.
func (s *loadSpec) IngestedElements() []uint64 {
	var all, scratch []uint64
	for i := 0; i < s.Ops; i++ {
		if s.Kind(i) == opIngest {
			scratch = s.Elements(i, scratch)
			all = append(all, scratch...)
		}
	}
	return all
}

// loadTarget is the system under load. Implementations must be safe for
// concurrent use by Clients goroutines.
type loadTarget interface {
	Ingest(batch []uint64) error
	Estimate() (float64, error)
	Snapshot() error
}

// loadCounts tallies the ops run and the ops that failed, per kind.
type loadCounts struct {
	ops, errs [numOpKinds]uint64
}

func (c *loadCounts) total() (ops, errs uint64) {
	for k := range c.ops {
		ops += c.ops[k]
		errs += c.errs[k]
	}
	return ops, errs
}

// runLoad executes the spec against the target with spec.Clients workers.
func runLoad(spec loadSpec, target loadTarget) (*loadCounts, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	var ops, errs [numOpKinds]atomic.Uint64
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < spec.Clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var scratch []uint64
			for {
				i := int(next.Add(1) - 1)
				if i >= spec.Ops {
					return
				}
				kind := spec.Kind(i)
				var err error
				switch kind {
				case opIngest:
					scratch = spec.Elements(i, scratch)
					err = target.Ingest(scratch)
				case opEstimate:
					_, err = target.Estimate()
				case opSnapshot:
					err = target.Snapshot()
				}
				ops[kind].Add(1)
				if err != nil {
					errs[kind].Add(1)
				}
			}
		}()
	}
	wg.Wait()
	c := &loadCounts{}
	for k := range ops {
		c.ops[k], c.errs[k] = ops[k].Load(), errs[k].Load()
	}
	return c, nil
}

// inProcTarget drives a ConcurrentF0 directly; snapshot ops encode the
// merged state.
type inProcTarget struct{ front *mcf0.ConcurrentF0 }

func (t inProcTarget) Ingest(batch []uint64) error {
	t.front.AddBatch(batch)
	return nil
}

func (t inProcTarget) Estimate() (float64, error) { return t.front.Estimate(), nil }

func (t inProcTarget) Snapshot() error {
	_, err := t.front.MarshalBinary()
	return err
}

// retryPolicy parameterises the HTTP target's seeded
// exponential-backoff-with-jitter retries. Retried faults are transport
// errors (resets, timeouts), retryable statuses (429, 500, 502, 503, 504)
// and undecodable response bodies (truncation, corruption): all safe to
// replay against f0d, because sketch ingestion has set semantics and a
// duplicate delivery cannot move the estimate (invariant 9).
type retryPolicy struct {
	// Max is the retry budget per op beyond the first attempt.
	Max int
	// Base is the first backoff ceiling, doubling per attempt (0 = 5ms).
	Base time.Duration
	// Cap bounds one backoff sleep (0 = 1s).
	Cap time.Duration
	// Seed drives the jitter: sleep n draws its fraction from
	// fracAt(Seed, n), so a seeded run backs off reproducibly.
	Seed uint64
	// Sleep overrides time.Sleep (tests inject to run instantly).
	Sleep func(time.Duration)
}

func (p retryPolicy) base() time.Duration {
	if p.Base > 0 {
		return p.Base
	}
	return 5 * time.Millisecond
}

func (p retryPolicy) cap() time.Duration {
	if p.Cap > 0 {
		return p.Cap
	}
	return time.Second
}

func (p retryPolicy) sleep(d time.Duration) {
	if p.Sleep != nil {
		p.Sleep(d)
		return
	}
	time.Sleep(d)
}

// backoff returns the jittered sleep before retry attempt+1: full jitter
// over min(Cap, Base·2^attempt), floored by the server's Retry-After when
// one was sent (itself capped, so a hostile header cannot stall the run).
func (p retryPolicy) backoff(attempt int, jitterIdx uint64, retryAfter time.Duration) time.Duration {
	ceil := p.base() << attempt
	if ceil > p.cap() || ceil <= 0 {
		ceil = p.cap()
	}
	d := time.Duration(fracAt(p.Seed, jitterIdx) * float64(ceil))
	if retryAfter > d {
		d = min(retryAfter, p.cap())
	}
	return d
}

// retryableStatus reports whether a status is safe and useful to retry:
// rate limiting, shedding and server-side conditions. A 4xx is a client
// mistake that replaying cannot fix.
func retryableStatus(status int) bool {
	switch status {
	case http.StatusTooManyRequests,
		http.StatusInternalServerError,
		http.StatusBadGateway,
		http.StatusServiceUnavailable,
		http.StatusGatewayTimeout:
		return true
	}
	return false
}

// parseRetryAfter reads a delay-seconds Retry-After value (the only form
// f0d emits); absent or unparsable headers mean no floor.
func parseRetryAfter(h http.Header) time.Duration {
	secs, err := strconv.Atoi(h.Get("Retry-After"))
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// httpTarget drives one sketch of a live f0d through the routes of
// docs/API.md with bearer-token auth and the retry policy.
type httpTarget struct {
	base, token, sketch string
	client              *http.Client
	retry               retryPolicy
	// retries is the global jitter index: every retry across all workers
	// draws the next value of the policy's jitter stream. Which worker
	// draws which index depends on scheduling, which invariant 9 allows:
	// the final estimate must not depend on the fault/retry interleaving.
	retries atomic.Uint64
}

func newHTTPTarget(baseURL, token, sketch string, client *http.Client, retry retryPolicy) *httpTarget {
	return &httpTarget{base: strings.TrimRight(baseURL, "/"), token: token, sketch: sketch,
		client: client, retry: retry}
}

// Retries returns how many retry attempts the target has issued.
func (t *httpTarget) Retries() uint64 { return t.retries.Load() }

// do issues one request under the retry policy and returns the last
// error once the budget runs out.
func (t *httpTarget) do(method, url string, body []byte, out any) error {
	for attempt := 0; ; attempt++ {
		retryable, retryAfter, err := t.doOnce(method, url, body, out)
		if err == nil || !retryable || attempt >= t.retry.Max {
			return err
		}
		t.retry.sleep(t.retry.backoff(attempt, t.retries.Add(1)-1, retryAfter))
	}
}

// doOnce issues one attempt and drains the response; a non-2xx status
// decodes the error envelope into the returned error, and a 2xx decodes
// into out when it is non-nil.
func (t *httpTarget) doOnce(method, url string, body []byte, out any) (retryable bool, retryAfter time.Duration, err error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return false, 0, err
	}
	if t.token != "" {
		req.Header.Set("Authorization", "Bearer "+t.token)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := t.client.Do(req)
	if err != nil {
		return true, 0, err // transport errors (resets, timeouts) are always retryable
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		var envelope struct {
			Error struct{ Code, Message string }
		}
		err = fmt.Errorf("%s %s: HTTP %d", method, url, resp.StatusCode)
		if json.NewDecoder(resp.Body).Decode(&envelope) == nil && envelope.Error.Code != "" {
			err = fmt.Errorf("%s %s: %s (%s)", method, url, envelope.Error.Code, envelope.Error.Message)
		}
		return retryableStatus(resp.StatusCode), parseRetryAfter(resp.Header), err
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			// A 2xx with an undecodable body is a truncated or corrupted
			// response: the op succeeded server-side, so replaying it is
			// harmless and recovers the payload.
			return true, 0, fmt.Errorf("%s %s: decoding response: %w", method, url, err)
		}
	}
	return false, 0, nil
}

// CreateSketch creates the target sketch; an existing one is an error,
// since its seed and config may not match the reference run's.
func (t *httpTarget) CreateSketch(bits int, algorithm string, seed uint64, replicas int) error {
	req := map[string]any{"name": t.sketch, "bits": bits, "seed": strconv.FormatUint(seed, 10)}
	if algorithm != "" {
		req["algorithm"] = algorithm
	}
	if replicas > 0 {
		req["replicas"] = replicas
	}
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	return t.do("POST", t.base+"/v1/sketches", body, nil)
}

// DeleteSketch removes the target sketch and its snapshots.
func (t *httpTarget) DeleteSketch() error {
	return t.do("DELETE", t.base+"/v1/sketches/"+t.sketch, nil, nil)
}

// Ingest posts one batch as {"elements":[…]}; f0d reads each number as
// an exact uint64.
func (t *httpTarget) Ingest(batch []uint64) error {
	buf := []byte(`{"elements":[`)
	for i, x := range batch {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = strconv.AppendUint(buf, x, 10)
	}
	buf = append(buf, `]}`...)
	return t.do("POST", t.base+"/v1/sketches/"+t.sketch+"/add", buf, nil)
}

func (t *httpTarget) Estimate() (float64, error) {
	var out struct {
		Estimate float64 `json:"estimate"`
	}
	if err := t.do("GET", t.base+"/v1/sketches/"+t.sketch+"/estimate", nil, &out); err != nil {
		return 0, err
	}
	return out.Estimate, nil
}

// Snapshot posts to the snapshot route; against a daemon without a data
// directory it fails with snapshots_disabled.
func (t *httpTarget) Snapshot() error {
	return t.do("POST", t.base+"/v1/sketches/"+t.sketch+"/snapshot", nil, nil)
}
