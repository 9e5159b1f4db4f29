// Package loadgen is the profiling-driven load harness: a seeded, fully
// replayable traffic generator that drives a sketch front — in-process
// (mcf0.ConcurrentF0) or a live f0d HTTP endpoint — with N concurrent
// clients, records per-operation latency in a fixed-bucket log-linear
// histogram, and emits a JSON report (sustained ops/sec, p50/p99/p999
// per op kind, error counts) with optional SLO assertions.
//
// The workload is data, not chance: operation i of a Spec is a pure
// function of (Spec, i) — kind chosen by weighted mix, ingest elements
// drawn Zipf- or uniform-distributed over a configurable hot-key space
// and scattered through the element universe by a fixed mixing
// bijection. Workers claim indices from one atomic counter, so every op
// executes exactly once no matter how clients are scheduled, and the
// *set* of ingested elements (hence the final sketch estimate, by the
// partition-independence of invariant 2) is identical across runs,
// client counts, and targets. Two runs with one seed are byte-identical
// workloads (determinism invariant 8 in docs/ARCHITECTURE.md); two
// targets fed one seed must answer with one estimate (invariant 7).
//
// Arrival patterns (open loop, constant rate, on/off bursts, linear
// ramp) assign each op a scheduled start time; workers sleep until an
// op's slot before issuing it. Latency is measured request-to-response
// on the issuing client (service time, not queue-corrected: a saturated
// target delays later slots — read sustained ops/sec next to the
// percentiles).
package loadgen

import (
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"strconv"

	"mcf0/internal/stats"
)

// OpKind enumerates the generated operation kinds.
type OpKind uint8

// The operation kinds of a mixed workload.
const (
	OpIngest OpKind = iota
	OpEstimate
	OpSnapshot
	numOpKinds
)

// String returns the report/mix-flag name of the kind.
func (k OpKind) String() string {
	switch k {
	case OpIngest:
		return "ingest"
	case OpEstimate:
		return "estimate"
	case OpSnapshot:
		return "snapshot"
	}
	return fmt.Sprintf("opkind(%d)", uint8(k))
}

// Spec is one replayable workload: every field participates in op
// generation, so equal Specs generate byte-identical op sequences.
type Spec struct {
	// Seed keys all generation randomness (op kinds, elements).
	Seed uint64 `json:"seed"`
	// Ops is the total operation count.
	Ops int `json:"ops"`
	// Clients is the number of concurrent workers issuing ops.
	Clients int `json:"clients"`
	// Bits is the element-universe width (1–64); generated elements are
	// < 2^Bits, matching the target sketch's universe.
	Bits int `json:"bits"`
	// Batch is the number of elements per ingest op.
	Batch int `json:"batch"`
	// IngestWeight, EstimateWeight, and SnapshotWeight set the op mix;
	// they are relative (only ratios matter) and must sum > 0.
	IngestWeight   float64 `json:"ingest_weight"`
	EstimateWeight float64 `json:"estimate_weight"`
	SnapshotWeight float64 `json:"snapshot_weight"`
	// Keys bounds the hot-key space: elements are drawn from Keys
	// distinct keys scattered over the universe. 0 means 2^min(Bits,63)
	// (effectively unlimited).
	Keys uint64 `json:"keys,omitempty"`
	// ZipfS is the Zipf skew exponent over the key space; 0 selects the
	// uniform distribution, otherwise it must be > 1 (the math/rand/v2
	// generator's domain) — larger is more skewed.
	ZipfS float64 `json:"zipf_s,omitempty"`
	// Arrival selects the arrival pattern: "open" (issue as fast as the
	// target absorbs; default), "constant" (fixed Rate), "burst" (Rate
	// during BurstOn, silence during BurstOff), or "ramp" (rate grows
	// linearly Rate → RampTo over the run).
	Arrival string `json:"arrival,omitempty"`
	// Rate is the target ops/sec for constant/burst/ramp arrivals.
	Rate float64 `json:"rate,omitempty"`
	// RampTo is the final ops/sec of the ramp pattern.
	RampTo float64 `json:"ramp_to,omitempty"`
	// BurstOn and BurstOff are the burst pattern's phase lengths in
	// seconds (defaults 1 and 1).
	BurstOn  float64 `json:"burst_on,omitempty"`
	BurstOff float64 `json:"burst_off,omitempty"`
}

// Validate reports the first structural problem with the spec.
func (s *Spec) Validate() error {
	if s.Ops <= 0 {
		return fmt.Errorf("loadgen: ops %d must be positive", s.Ops)
	}
	if s.Clients <= 0 {
		return fmt.Errorf("loadgen: clients %d must be positive", s.Clients)
	}
	if s.Bits < 1 || s.Bits > 64 {
		return fmt.Errorf("loadgen: universe width %d out of [1,64]", s.Bits)
	}
	if s.Batch <= 0 {
		return fmt.Errorf("loadgen: batch %d must be positive", s.Batch)
	}
	if s.IngestWeight < 0 || s.EstimateWeight < 0 || s.SnapshotWeight < 0 {
		return fmt.Errorf("loadgen: op-mix weights must be non-negative")
	}
	if s.IngestWeight+s.EstimateWeight+s.SnapshotWeight <= 0 {
		return fmt.Errorf("loadgen: op-mix weights sum to zero")
	}
	if s.ZipfS != 0 && s.ZipfS <= 1 {
		return fmt.Errorf("loadgen: zipf skew %g must be 0 (uniform) or > 1", s.ZipfS)
	}
	switch s.Arrival {
	case "", "open":
	case "constant":
		if s.Rate <= 0 {
			return fmt.Errorf("loadgen: constant arrival needs rate > 0")
		}
	case "burst":
		if s.Rate <= 0 {
			return fmt.Errorf("loadgen: burst arrival needs rate > 0")
		}
		if s.BurstOn < 0 || s.BurstOff < 0 {
			return fmt.Errorf("loadgen: burst phases must be non-negative")
		}
	case "ramp":
		if s.Rate <= 0 || s.RampTo <= 0 {
			return fmt.Errorf("loadgen: ramp arrival needs rate and ramp_to > 0")
		}
	default:
		return fmt.Errorf("loadgen: unknown arrival pattern %q", s.Arrival)
	}
	return nil
}

// keySpace resolves the hot-key count.
func (s *Spec) keySpace() uint64 {
	if s.Keys > 0 {
		return s.Keys
	}
	b := s.Bits
	if b > 63 {
		b = 63
	}
	return uint64(1) << uint(b)
}

// Kind returns op i's kind — a pure function of (Spec, i).
func (s *Spec) Kind(i int) OpKind {
	total := s.IngestWeight + s.EstimateWeight + s.SnapshotWeight
	// One uniform draw in [0,1) keyed by (seed, index) picks the kind by
	// cumulative weight.
	u := float64(stats.Mix64((s.Seed^0xa5a5a5a5a5a5a5a5^uint64(i))+0x9e3779b97f4a7c15)>>11) / (1 << 53)
	x := u * total
	if x < s.IngestWeight {
		return OpIngest
	}
	if x < s.IngestWeight+s.EstimateWeight {
		return OpEstimate
	}
	return OpSnapshot
}

// Elements fills dst with op i's ingest batch (it must have Kind(i) ==
// OpIngest) and returns dst sliced to Spec.Batch, reusing dst's storage
// when it is large enough. Elements are < 2^Bits and a pure function of
// (Spec, i).
func (s *Spec) Elements(i int, dst []uint64) []uint64 {
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
	var mask uint64
	if s.Bits >= 64 {
		mask = ^uint64(0)
	} else {
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
		// function so hot keys are not clustered at small values; the
		// mapping depends only on Seed, so replays and reference runs
		// agree on it.
		dst[j] = stats.Mix64(s.Seed+0x517cc1b727220a95+key+0x9e3779b97f4a7c15) & mask
	}
	return dst
}

// IngestedElements returns the union stream of every ingest op in order
// of op index — the reference stream an in-process sketch replays to
// check a target's final estimate (invariant 7).
func (s *Spec) IngestedElements() []uint64 {
	var all []uint64
	var scratch []uint64
	for i := 0; i < s.Ops; i++ {
		if s.Kind(i) != OpIngest {
			continue
		}
		scratch = s.Elements(i, scratch)
		all = append(all, scratch...)
	}
	return all
}

// DumpOps renders the full op sequence as text, one op per line
// ("<index> <kind> [elements…]") — the replay transcript: equal Specs
// write byte-identical dumps (asserted by TestReplayDeterminism), and a
// dump diff pinpoints where two specs diverge.
func (s *Spec) DumpOps(w io.Writer) error {
	buf := make([]byte, 0, 256)
	var scratch []uint64
	for i := 0; i < s.Ops; i++ {
		buf = buf[:0]
		buf = strconv.AppendInt(buf, int64(i), 10)
		buf = append(buf, ' ')
		kind := s.Kind(i)
		buf = append(buf, kind.String()...)
		if kind == OpIngest {
			scratch = s.Elements(i, scratch)
			for _, x := range scratch {
				buf = append(buf, ' ')
				buf = strconv.AppendUint(buf, x, 10)
			}
		}
		buf = append(buf, '\n')
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

// scheduledAt returns op i's offset from run start in seconds under the
// spec's arrival pattern (0 for the open loop: no pacing).
func (s *Spec) scheduledAt(i int) float64 {
	switch s.Arrival {
	case "constant":
		return float64(i) / s.Rate
	case "burst":
		on, off := s.BurstOn, s.BurstOff
		if on <= 0 {
			on = 1
		}
		if off <= 0 {
			off = 1
		}
		perBurst := s.Rate * on
		if perBurst < 1 {
			perBurst = 1
		}
		burst := float64(i) / perBurst
		whole := float64(uint64(burst))
		frac := burst - whole
		return whole*(on+off) + frac*on
	case "ramp":
		if s.RampTo == s.Rate {
			return float64(i) / s.Rate
		}
		// Rate ramps linearly r(t) = Rate + a·t with a chosen so the last
		// op lands when the instantaneous rate reaches RampTo: total T
		// solves Ops = (Rate+RampTo)/2·T. Cumulative ops c(t) = Rate·t +
		// a·t²/2; invert for op i.
		T := 2 * float64(s.Ops) / (s.Rate + s.RampTo)
		a := (s.RampTo - s.Rate) / T
		r := s.Rate
		// t = (−r + √(r² + 2a·i)) / a
		d := r*r + 2*a*float64(i)
		if d < 0 {
			d = 0
		}
		return (math.Sqrt(d) - r) / a
	}
	return 0
}
