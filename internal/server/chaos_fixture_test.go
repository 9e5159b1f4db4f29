package server_test

// The seeded fault injector behind the invariant 9 guards: a chaos
// policy whose every decision is a pure function of (seed, event index),
// rendered at two seams of the f0d serve path — an http.RoundTripper
// that injects latency spikes, connection resets and truncated or
// corrupted response bodies on the client side, and a state.DiskHook
// that fails snapshot writes transiently by rate or permanently on
// demand.
//
// The fault sequence is a pure function of the seed. Which concurrent
// request receives which decision depends on scheduling, deliberately:
// the resilience layer must make any assignment of faults harmless, and
// with retries a fault-injected run's final estimate is bit-identical to
// the fault-free run's. Every injected fault is counted by kind, so a
// test can attribute observed errors: a failure no counter covers is a
// real bug.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"time"

	"mcf0/internal/stats"
)

// faultKind enumerates the injectable fault classes.
type faultKind int

const (
	// faultNone is the no-fault decision (not counted).
	faultNone faultKind = iota
	// faultLatency delays the round trip by a fraction of MaxLatency.
	faultLatency
	// faultReset aborts the connection, before the request is sent
	// (delivered zero times) or after (delivered, response lost).
	faultReset
	// faultTruncate cuts the response body in half, leaving the declared
	// Content-Length intact so readers hit an unexpected EOF.
	faultTruncate
	// faultCorrupt overwrites the leading response-body bytes with 0xFF,
	// which can never begin valid JSON.
	faultCorrupt
	// faultDisk fails a snapshot disk operation.
	faultDisk

	numFaultKinds
)

// String names the fault kind (the injected map's keys).
func (k faultKind) String() string {
	return [...]string{"none", "latency", "reset", "truncate", "corrupt", "disk"}[k]
}

// chaosConfig parameterises a chaos policy. Rates are per-event
// probabilities in [0, 1]; an event is one HTTP round trip or one disk
// operation, each drawing from its own decision stream.
type chaosConfig struct {
	// Seed fixes every decision.
	Seed uint64
	// Latency is the rate of injected delays, each a fraction of
	// MaxLatency (0 = 5ms).
	Latency    float64
	MaxLatency time.Duration
	// Reset, Truncate and Corrupt are the rates of the other HTTP faults.
	Reset, Truncate, Corrupt float64
	// Disk is the rate of transient disk failures (independent of
	// breakDisk's permanent mode).
	Disk float64
}

// chaosPolicy renders a chaosConfig into the two seams. Each seam draws
// from its own stream, salted off the shared seed, so chaos on one seam
// never perturbs the other's sequence.
type chaosPolicy struct {
	cfg chaosConfig

	httpIdx, diskIdx atomic.Uint64
	diskBroken       atomic.Bool
	counts           [numFaultKinds]atomic.Uint64
}

// newChaos builds a policy; an invalid literal config is a test bug.
func newChaos(cfg chaosConfig) *chaosPolicy {
	for _, r := range []float64{cfg.Latency, cfg.Reset, cfg.Truncate, cfg.Corrupt, cfg.Disk} {
		if r < 0 || r > 1 {
			panic(fmt.Sprintf("chaos rate %v outside [0,1]", r))
		}
	}
	if sum := cfg.Latency + cfg.Reset + cfg.Truncate + cfg.Corrupt; sum > 1 {
		panic(fmt.Sprintf("HTTP fault rates sum to %v > 1", sum))
	}
	return &chaosPolicy{cfg: cfg}
}

// u64At is the decision kernel: a splitmix64-style mix of (seed, index),
// pure and stateless. The retry jitter draws from it too.
func u64At(seed, index uint64) uint64 {
	return stats.Mix64(seed + (index+1)*0x9e3779b97f4a7c15)
}

// fracAt maps u64At into [0, 1) with 53-bit precision.
func fracAt(seed, index uint64) float64 {
	return float64(u64At(seed, index)>>11) / float64(1<<53)
}

// Stream salts keep the two decision streams independent.
const (
	saltHTTP = 0x68747470 // "http"
	saltDisk = 0x6469736b // "disk"
)

// decision is one rendered draw: the fault and a secondary fraction for
// fault-local choices (latency magnitude, reset phase).
type decision struct {
	kind faultKind
	frac float64
}

// httpDecision draws the next HTTP-path decision.
func (c *chaosPolicy) httpDecision() decision {
	i := c.httpIdx.Add(1) - 1
	p := fracAt(c.cfg.Seed^saltHTTP, 2*i)
	frac := fracAt(c.cfg.Seed^saltHTTP, 2*i+1)
	cum := c.cfg.Latency
	if p < cum {
		return decision{faultLatency, frac}
	}
	if cum += c.cfg.Reset; p < cum {
		return decision{faultReset, frac}
	}
	if cum += c.cfg.Truncate; p < cum {
		return decision{faultTruncate, frac}
	}
	if cum += c.cfg.Corrupt; p < cum {
		return decision{faultCorrupt, frac}
	}
	return decision{faultNone, frac}
}

// diskDecision draws the next disk-path decision.
func (c *chaosPolicy) diskDecision() decision {
	i := c.diskIdx.Add(1) - 1
	if p := fracAt(c.cfg.Seed^saltDisk, i); p < c.cfg.Disk {
		return decision{faultDisk, p}
	}
	return decision{faultNone, 0}
}

func (c *chaosPolicy) count(k faultKind) { c.counts[k].Add(1) }

// injected returns the faults injected so far by kind, omitting kinds
// with none.
func (c *chaosPolicy) injected() map[string]uint64 {
	out := make(map[string]uint64)
	for k := faultKind(1); k < numFaultKinds; k++ {
		if n := c.counts[k].Load(); n > 0 {
			out[k.String()] = n
		}
	}
	return out
}

// injectedTotal returns the injected-fault count across kinds.
func (c *chaosPolicy) injectedTotal() uint64 {
	var n uint64
	for k := faultKind(1); k < numFaultKinds; k++ {
		n += c.counts[k].Load()
	}
	return n
}

// breakDisk makes every disk operation fail until healDisk: the lever
// that opens the snapshot circuit breaker deterministically.
func (c *chaosPolicy) breakDisk() { c.diskBroken.Store(true) }

// healDisk ends permanent-failure mode; transient failures at the Disk
// rate continue.
func (c *chaosPolicy) healDisk() { c.diskBroken.Store(false) }

// errInjected is wrapped by every injected error.
var errInjected = errors.New("injected fault")

// diskHook returns a state.DiskHook that fails the operation with a
// wrapped errInjected permanently (breakDisk) or at the Disk rate.
func (c *chaosPolicy) diskHook() func(path, phase string) error {
	return func(path, phase string) error {
		if c.diskBroken.Load() {
			c.count(faultDisk)
			return fmt.Errorf("%w: permanent disk failure (%s %s)", errInjected, phase, path)
		}
		if d := c.diskDecision(); d.kind == faultDisk {
			c.count(faultDisk)
			return fmt.Errorf("%w: transient disk failure (%s %s)", errInjected, phase, path)
		}
		return nil
	}
}

// resetError is the injected connection reset.
type resetError struct{ phase string }

func (e *resetError) Error() string { return "injected fault: connection reset (" + e.phase + ")" }
func (e *resetError) Unwrap() error { return errInjected }

// roundTripper wraps inner with the policy's HTTP faults. Each round
// trip draws one decision:
//
//   - latency: sleep frac·MaxLatency, then forward unchanged;
//   - reset (frac < ½): fail before the request is sent;
//   - reset (frac ≥ ½): forward, discard the response, fail — a retry
//     after this is a duplicate delivery, which set-semantics ingestion
//     must absorb without moving the estimate;
//   - truncate: forward, then cut the body in half;
//   - corrupt: forward, then overwrite the leading body bytes with 0xFF.
func (c *chaosPolicy) roundTripper(inner http.RoundTripper) http.RoundTripper {
	return chaosTransport{c: c, inner: inner}
}

type chaosTransport struct {
	c     *chaosPolicy
	inner http.RoundTripper
}

func (rt chaosTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	d := rt.c.httpDecision()
	switch d.kind {
	case faultLatency:
		rt.c.count(faultLatency)
		maxLatency := rt.c.cfg.MaxLatency
		if maxLatency <= 0 {
			maxLatency = 5 * time.Millisecond
		}
		time.Sleep(time.Duration(d.frac * float64(maxLatency)))
	case faultReset:
		rt.c.count(faultReset)
		if d.frac < 0.5 {
			if req.Body != nil {
				req.Body.Close()
			}
			return nil, &resetError{phase: "before send"}
		}
		if resp, err := rt.inner.RoundTrip(req); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		return nil, &resetError{phase: "after send"}
	case faultTruncate, faultCorrupt:
		resp, err := rt.inner.RoundTrip(req)
		if err != nil {
			return resp, err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		rt.c.count(d.kind)
		if d.kind == faultTruncate {
			body = body[:len(body)/2]
		} else {
			for i := 0; i < len(body) && i < 8; i++ {
				body[i] = 0xFF
			}
		}
		resp.Body = io.NopCloser(bytes.NewReader(body))
		return resp, nil
	}
	return rt.inner.RoundTrip(req)
}
