// Package faultinject is the repo's seeded, fully deterministic
// fault-injection framework: a Chaos policy whose every decision is a
// pure function of (seed, event index), rendered at two seams of the
// f0d serve path — an http.RoundTripper that injects latency spikes,
// connection resets, and truncated or corrupted response bodies on the
// client side, and a disk-write hook (state.DiskHook-compatible) that
// fails snapshot writes transiently by rate or permanently on demand.
//
// Determinism contract: the fault *sequence* is a pure function of the
// policy seed — replaying a workload with the same seed draws the same
// decisions in the same order. Which concurrent request receives which
// decision depends on scheduling, and deliberately so: the resilience
// layer under test must make ANY assignment of faults harmless, which is
// exactly what determinism invariant 9 (ARCHITECTURE.md) demands — with
// retries enabled, a fault-injected run's final estimate is bit-identical
// to the fault-free run, because F0 sketch state is a pure function of
// the element set and duplicate delivery is therefore free.
//
// Every injected fault is counted by kind (Injected), so tests and the
// chaos CI smoke can attribute observed errors: any failure not covered
// by an injected-fault counter is a real bug.
package faultinject

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"mcf0/internal/stats"
)

// Kind enumerates the injectable fault classes.
type Kind int

const (
	// KindNone is the no-fault decision (not counted).
	KindNone Kind = iota
	// KindLatency delays the event by a deterministic fraction of
	// Config.MaxLatency.
	KindLatency
	// KindReset aborts the connection — before the request is sent
	// (delivered zero times) or after (delivered, response lost), chosen
	// by a deterministic secondary draw.
	KindReset
	// KindTruncate cuts the response body in half, leaving the declared
	// Content-Length intact so readers hit an unexpected EOF.
	KindTruncate
	// KindCorrupt overwrites the leading response-body bytes with 0xFF,
	// which can never begin valid JSON (or valid UTF-8).
	KindCorrupt
	// KindDisk fails a snapshot disk write (transiently by Config.Disk
	// rate, or permanently after BreakDisk).
	KindDisk

	numKinds
)

// String names the fault kind (the Injected map's keys).
func (k Kind) String() string {
	switch k {
	case KindNone:
		return "none"
	case KindLatency:
		return "latency"
	case KindReset:
		return "reset"
	case KindTruncate:
		return "truncate"
	case KindCorrupt:
		return "corrupt"
	case KindDisk:
		return "disk"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Config parameterises a Chaos policy. Rates are per-event probabilities
// in [0, 1]; an event is one HTTP round trip or one disk-write phase,
// each drawing from its own decision stream.
type Config struct {
	// Seed fixes every decision; equal seeds replay equal fault
	// sequences.
	Seed uint64
	// Latency is the rate of injected delays; MaxLatency bounds them
	// (0 = 5ms). The actual delay is a deterministic fraction of
	// MaxLatency drawn per event.
	Latency    float64
	MaxLatency time.Duration
	// Reset is the rate of injected connection resets on the HTTP path.
	Reset float64
	// Truncate is the rate of truncated response bodies.
	Truncate float64
	// Corrupt is the rate of corrupted response bodies.
	Corrupt float64
	// Disk is the rate of transient disk-write failures injected by the
	// DiskHook (independent of BreakDisk's permanent mode).
	Disk float64
}

func (c Config) maxLatency() time.Duration {
	if c.MaxLatency > 0 {
		return c.MaxLatency
	}
	return 5 * time.Millisecond
}

func (c Config) validate() error {
	for _, r := range []struct {
		name string
		v    float64
	}{{"latency", c.Latency}, {"reset", c.Reset}, {"truncate", c.Truncate},
		{"corrupt", c.Corrupt}, {"disk", c.Disk}} {
		if r.v < 0 || r.v > 1 {
			return fmt.Errorf("faultinject: %s rate %v outside [0,1]", r.name, r.v)
		}
	}
	if c.Latency+c.Reset+c.Truncate+c.Corrupt > 1 {
		return fmt.Errorf("faultinject: HTTP fault rates sum to %v > 1",
			c.Latency+c.Reset+c.Truncate+c.Corrupt)
	}
	return nil
}

// Chaos renders a Config into the two injection seams. One instance may
// back any number of RoundTrippers and DiskHooks; each seam consumes its
// own decision stream (salted off the shared seed) so adding chaos on
// one seam never perturbs another's sequence.
type Chaos struct {
	cfg Config

	httpIdx atomic.Uint64
	diskIdx atomic.Uint64

	diskBroken atomic.Bool
	counts     [numKinds]atomic.Uint64
}

// New builds a Chaos policy; invalid rates are a programming error and
// are rejected loudly.
func New(cfg Config) (*Chaos, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &Chaos{cfg: cfg}, nil
}

// MustNew is New for tests and wiring where the config is a literal.
func MustNew(cfg Config) *Chaos {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// U64At is the deterministic decision kernel: a splitmix64-style mix of
// (seed, index), pure and stateless. Exported so other packages (the
// loadgen retry jitter, the distributed flaky-transport tests) can share
// the same reproducible stream without importing a second RNG.
func U64At(seed, index uint64) uint64 {
	return stats.Mix64(seed + (index+1)*0x9e3779b97f4a7c15)
}

// FracAt maps U64At into [0, 1) with 53-bit precision.
func FracAt(seed, index uint64) float64 {
	return float64(U64At(seed, index)>>11) / float64(1<<53)
}

// Stream salts keep the two decision streams independent.
const (
	saltHTTP = 0x68747470 // "http"
	saltDisk = 0x6469736b // "disk"
)

// decision is one rendered draw: the chosen fault and a secondary
// fraction for fault-local choices (latency magnitude, reset phase).
type decision struct {
	kind Kind
	frac float64
}

// httpDecision draws the next HTTP-path decision.
func (c *Chaos) httpDecision() decision {
	i := c.httpIdx.Add(1) - 1
	p := FracAt(c.cfg.Seed^saltHTTP, 2*i)
	frac := FracAt(c.cfg.Seed^saltHTTP, 2*i+1)
	cum := c.cfg.Latency
	if p < cum {
		return decision{KindLatency, frac}
	}
	if cum += c.cfg.Reset; p < cum {
		return decision{KindReset, frac}
	}
	if cum += c.cfg.Truncate; p < cum {
		return decision{KindTruncate, frac}
	}
	if cum += c.cfg.Corrupt; p < cum {
		return decision{KindCorrupt, frac}
	}
	return decision{KindNone, frac}
}

// diskDecision draws the next disk-path decision.
func (c *Chaos) diskDecision() decision {
	i := c.diskIdx.Add(1) - 1
	if p := FracAt(c.cfg.Seed^saltDisk, i); p < c.cfg.Disk {
		return decision{KindDisk, p}
	}
	return decision{KindNone, 0}
}

func (c *Chaos) count(k Kind) { c.counts[k].Add(1) }

// Injected returns how many faults of each kind have been injected so
// far (kinds with zero injections are omitted).
func (c *Chaos) Injected() map[string]uint64 {
	out := make(map[string]uint64)
	for k := Kind(1); k < numKinds; k++ {
		if n := c.counts[k].Load(); n > 0 {
			out[k.String()] = n
		}
	}
	return out
}

// InjectedTotal returns the total injected-fault count across kinds.
func (c *Chaos) InjectedTotal() uint64 {
	var n uint64
	for k := Kind(1); k < numKinds; k++ {
		n += c.counts[k].Load()
	}
	return n
}

// BreakDisk switches the DiskHook to permanent-failure mode: every disk
// write fails until HealDisk. This is the degraded-mode lever — it opens
// the snapshot circuit breaker deterministically, unlike the rate-driven
// transient failures.
func (c *Chaos) BreakDisk() { c.diskBroken.Store(true) }

// HealDisk ends permanent-failure mode; rate-driven transient failures
// (Config.Disk) continue to apply.
func (c *Chaos) HealDisk() { c.diskBroken.Store(false) }

// ErrInjected is the sentinel wrapped by every injected error, so
// resilience code and tests can tell injected faults from real ones.
var ErrInjected = errors.New("faultinject: injected fault")

// DiskHook returns a hook compatible with the state package's snapshot
// write seam (func(path, phase string) error): it fails the write with a
// wrapped ErrInjected either permanently (BreakDisk) or transiently at
// the Config.Disk rate, and passes otherwise.
func (c *Chaos) DiskHook() func(path, phase string) error {
	return func(path, phase string) error {
		if c.diskBroken.Load() {
			c.count(KindDisk)
			return fmt.Errorf("%w: permanent disk failure (%s %s)", ErrInjected, phase, path)
		}
		if d := c.diskDecision(); d.kind == KindDisk {
			c.count(KindDisk)
			return fmt.Errorf("%w: transient disk failure (%s %s)", ErrInjected, phase, path)
		}
		return nil
	}
}

// ParseSpec parses the CLI chaos spec: comma-separated key=value pairs
// with keys seed, latency, max-latency, reset, truncate, corrupt, disk.
// Rates are probabilities in [0,1]; max-latency is a Go duration.
// Example:
//
//	seed=7,latency=0.05,max-latency=2ms,reset=0.06,truncate=0.04,corrupt=0.04
func ParseSpec(s string) (Config, error) {
	var cfg Config
	if strings.TrimSpace(s) == "" {
		return cfg, fmt.Errorf("faultinject: empty chaos spec")
	}
	for _, part := range strings.Split(s, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return cfg, fmt.Errorf("faultinject: spec term %q is not key=value", part)
		}
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		switch key {
		case "seed":
			v, err := strconv.ParseUint(val, 10, 64)
			if err != nil {
				return cfg, fmt.Errorf("faultinject: seed %q: %v", val, err)
			}
			cfg.Seed = v
		case "max-latency":
			d, err := time.ParseDuration(val)
			if err != nil || d < 0 {
				return cfg, fmt.Errorf("faultinject: max-latency %q is not a non-negative duration", val)
			}
			cfg.MaxLatency = d
		case "latency", "reset", "truncate", "corrupt", "disk":
			v, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return cfg, fmt.Errorf("faultinject: rate %s=%q is not a number", key, val)
			}
			switch key {
			case "latency":
				cfg.Latency = v
			case "reset":
				cfg.Reset = v
			case "truncate":
				cfg.Truncate = v
			case "corrupt":
				cfg.Corrupt = v
			case "disk":
				cfg.Disk = v
			}
		default:
			return cfg, fmt.Errorf("faultinject: unknown spec key %q", key)
		}
	}
	if err := cfg.validate(); err != nil {
		return cfg, err
	}
	return cfg, nil
}
