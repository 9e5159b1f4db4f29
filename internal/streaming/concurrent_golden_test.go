package streaming

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"slices"
	"testing"

	"mcf0/internal/bitvec"
	"mcf0/internal/stats"
)

// frontGolden is one pinned front feed: the SHA-256 of every (estimate
// bits, version, cached) triple its reads returned, and the SHA-256 of
// the final MergedClone's wire bytes.
type frontGolden struct {
	reads, bytes string
}

// concurrentGoldenDigests pins, per sketch kind and replica count, what
// a seeded feed of interleaved writes and EstimateVersioned calls reads
// through the concurrent front, and the bytes of its final MergedClone.
// The reads were captured while every estimate miss still merged a fresh
// clone of replica 0, so a change to how the front merges that moves an
// estimate or a cache outcome fails here. The bytes are pinned apart
// from them, and are one value per kind: snapshot bytes are a function
// of the element set, whatever replica took each write. Bucketing's were
// re-pinned when its encoder began to write cells in key order.
var concurrentGoldenDigests = map[string]frontGolden{
	"bucketing/replicas=1": {
		reads: "8025b4381e32dae08ebfec6bd431936a3fc496d10270376a5bee47bd314937ec",
		bytes: "749167c6e47fe836d63a36a2fad0243435ee0d8396dae50bd62609cae45781ab",
	},
	"bucketing/replicas=2": {
		reads: "8025b4381e32dae08ebfec6bd431936a3fc496d10270376a5bee47bd314937ec",
		bytes: "749167c6e47fe836d63a36a2fad0243435ee0d8396dae50bd62609cae45781ab",
	},
	"bucketing/replicas=4": {
		reads: "8025b4381e32dae08ebfec6bd431936a3fc496d10270376a5bee47bd314937ec",
		bytes: "749167c6e47fe836d63a36a2fad0243435ee0d8396dae50bd62609cae45781ab",
	},
	"minimum/replicas=1": {
		reads: "6f494317d2c4dbeede4943edc500b5c1ea56a7ad5ad051a206d664e66fa9895d",
		bytes: "99fb6ddc84b3bb4006887a41c2a657a4b866f96499e81b5b0cab0ef2a395d8d6",
	},
	"minimum/replicas=2": {
		reads: "6f494317d2c4dbeede4943edc500b5c1ea56a7ad5ad051a206d664e66fa9895d",
		bytes: "99fb6ddc84b3bb4006887a41c2a657a4b866f96499e81b5b0cab0ef2a395d8d6",
	},
	"minimum/replicas=4": {
		reads: "6f494317d2c4dbeede4943edc500b5c1ea56a7ad5ad051a206d664e66fa9895d",
		bytes: "99fb6ddc84b3bb4006887a41c2a657a4b866f96499e81b5b0cab0ef2a395d8d6",
	},
	"estimation/replicas=1": {
		reads: "3aabda68df4d848296b76e10950577121e60c45d9f4a8a5a9729b079f943d299",
		bytes: "2b06544934dffa221bb13efa810af9d5f612c92f07bf5fd18ebf41afea70fdca",
	},
	"estimation/replicas=2": {
		reads: "3aabda68df4d848296b76e10950577121e60c45d9f4a8a5a9729b079f943d299",
		bytes: "2b06544934dffa221bb13efa810af9d5f612c92f07bf5fd18ebf41afea70fdca",
	},
	"estimation/replicas=4": {
		reads: "3aabda68df4d848296b76e10950577121e60c45d9f4a8a5a9729b079f943d299",
		bytes: "2b06544934dffa221bb13efa810af9d5f612c92f07bf5fd18ebf41afea70fdca",
	},
}

const concurrentGoldenBits = 24

// concurrentGoldenKinds lists the sketch constructors the front golden
// and differential run, in a fixed order.
var concurrentGoldenKinds = []struct {
	name string
	mk   func() Sketch
}{
	{"bucketing", func() Sketch { return NewBucketing(concurrentGoldenBits, concurrentGoldenOpts(0xb1)) }},
	{"minimum", func() Sketch { return NewMinimum(concurrentGoldenBits, concurrentGoldenOpts(0x31)) }},
	{"estimation", func() Sketch { return NewEstimation(concurrentGoldenBits, concurrentGoldenOpts(0xe1)) }},
}

func concurrentGoldenOpts(seed uint64) Options {
	return Options{Thresh: 24, Iterations: 5, RNG: stats.NewRNG(seed), Parallelism: 1}
}

// writeOn makes xs one write that lands on replica r of front: it holds
// the locks of replicas [0, r), which must all be built, so the write's
// lowest-free search passes them and takes replica r, building it when
// r is the next slot.
func writeOn(front *Concurrent, r int, xs []uint64) {
	held := front.inUse()
	if r > len(held) {
		panic(fmt.Sprintf("writeOn: replica %d is past the %d built", r, len(held)))
	}
	for _, h := range held[:r] {
		h.mu.Lock()
	}
	front.ProcessBatch(xs)
	for _, h := range held[:r] {
		h.mu.Unlock()
	}
}

// rotating returns a writer that steers write k (counting from 1) onto
// replica k mod P, so one goroutine's feed reaches every replica.
func rotating(front *Concurrent) func([]uint64) {
	k := 0
	return func(xs []uint64) {
		k++
		writeOn(front, k%front.Replicas(), xs)
	}
}

// concurrentGoldenFeed drives a front through seeded rounds of writes
// (one-element and larger ProcessBatch chunks drawn with replacement
// from a pool whose live prefix grows, so batches repeat elements within
// themselves and across rounds, and enough distinct elements arrive to
// raise Bucketing's level) made through write, calling read zero to two
// times after each write and wrote once per write with the elements it
// carried.
func concurrentGoldenFeed(write func([]uint64), seed uint64, read func(), wrote func([]uint64)) {
	rng := stats.NewRNG(seed)
	pool := make([]uint64, 600)
	for i := range pool {
		pool[i] = bitvec.Random(concurrentGoldenBits, rng.Uint64).Uint64()
	}
	sizes := []int{1, 7, 64, 3, 150, 1, 16}
	for round := 0; round < 36; round++ {
		live := min(len(pool), 40+20*round)
		batch := make([]uint64, sizes[round%len(sizes)])
		for k := range batch {
			batch[k] = pool[rng.Uint64n(uint64(live))]
		}
		write(batch)
		wrote(batch)
		for k := rng.Uint64n(3); k > 0; k-- {
			read()
		}
	}
}

// concurrentGoldenDigest runs the golden feed through write into front
// and returns the digests of what it read and of its final MergedClone.
func concurrentGoldenDigest(t *testing.T, name string, front *Concurrent, write func([]uint64)) frontGolden {
	h := sha256.New()
	var rec [17]byte
	concurrentGoldenFeed(write, 0xc0ffee, func() {
		est, v, cached := front.EstimateVersioned()
		binary.LittleEndian.PutUint64(rec[:8], math.Float64bits(est))
		binary.LittleEndian.PutUint64(rec[8:16], v)
		rec[16] = 0
		if cached {
			rec[16] = 1
		}
		h.Write(rec[:])
	}, func([]uint64) {})
	merged := front.MergedClone()
	if b, ok := merged.(*Bucketing); ok && b.MaxLevel() < 2 {
		t.Fatalf("%s: feed left the sampling level at %d", name, b.MaxLevel())
	}
	sum := sha256.Sum256(AppendSketch(nil, merged))
	return frontGolden{hex.EncodeToString(h.Sum(nil)), hex.EncodeToString(sum[:])}
}

// requireFrontGolden fails t where got, a feed's digests, differ from
// want.
func requireFrontGolden(t *testing.T, what string, got, want frontGolden) {
	t.Helper()
	if got.reads != want.reads {
		t.Errorf("%s: reads digest %s, want %s", what, got.reads, want.reads)
	}
	if got.bytes != want.bytes {
		t.Errorf("%s: snapshot digest %s, want %s", what, got.bytes, want.bytes)
	}
}

// TestConcurrentEstimateGoldenDeterminism checks the pinned digests for
// every sketch kind at 1, 2 and 4 replicas, with the writes steered onto
// the replicas the pinned feed used. Unsteered, one goroutine's writes
// all take replica 0, so at 2 and 4 replicas the front builds no second
// replica and must read exactly as the one-replica front does.
func TestConcurrentEstimateGoldenDeterminism(t *testing.T) {
	for _, kind := range concurrentGoldenKinds {
		single := concurrentGoldenDigests[kind.name+"/replicas=1"]
		for _, reps := range []int{1, 2, 4} {
			name := fmt.Sprintf("%s/replicas=%d", kind.name, reps)
			front := NewConcurrent(kind.mk(), reps)
			requireFrontGolden(t, name, concurrentGoldenDigest(t, name, front, rotating(front)), concurrentGoldenDigests[name])
			if built := len(front.inUse()); built != reps {
				t.Errorf("%s: steered feed built %d replicas", name, built)
			}
			front = NewConcurrent(kind.mk(), reps)
			requireFrontGolden(t, name+" unsteered", concurrentGoldenDigest(t, name, front, front.ProcessBatch), single)
			if built := len(front.inUse()); built != 1 {
				t.Errorf("%s unsteered: one writer built %d replicas", name, built)
			}
		}
	}
}

// referenceMerge returns the union of front's built replicas, merged
// apart from the front: a fresh clone of replica 0 with every other
// replica merged into it. It reads no log and changes no replica, so,
// taken before a miss, it checks the miss's drain against an independent
// merge and leaves the replay path to the front's own misses.
func referenceMerge(front *Concurrent) Sketch {
	if err := front.lockAll(); err != nil {
		panic(err)
	}
	defer front.unlockAll(nil)
	merged := front.replicas[0].sk.Clone()
	for _, r := range front.inUse()[1:] {
		merge(merged, r.sk)
	}
	return merged
}

// requireTarget fails t unless replica 0 of front, after a miss, holds
// ref's snapshot bytes and no log: it is the front's merged state.
func requireTarget(t *testing.T, what string, front *Concurrent, ref Sketch) {
	t.Helper()
	r0 := front.replicas[0]
	if !bytes.Equal(AppendSketch(nil, r0.sk), AppendSketch(nil, ref)) {
		t.Fatalf("%s: replica 0's snapshot differs from the reference merge's", what)
	}
	if r0.log != nil {
		t.Fatalf("%s: replica 0 holds a log of capacity %d", what, cap(r0.log))
	}
}

// TestConcurrentEstimateVsMergedCloneDeterminism is the front's merge
// differential: after every write, the estimate a miss computes must be
// bit-identical to an independent merge of the replicas
// (referenceMerge, taken before the miss) and to a serial sketch that
// ingested the same elements, replica 0 must then hold the reference's
// snapshot bytes and no log, and the MergedClone taken after it must hold
// the serial sketch's snapshot bytes. The writes are steered over every
// replica.
func TestConcurrentEstimateVsMergedCloneDeterminism(t *testing.T) {
	for _, kind := range concurrentGoldenKinds {
		for _, reps := range []int{1, 2, 4} {
			front := NewConcurrent(kind.mk(), reps)
			serial := kind.mk()
			writes := 0
			concurrentGoldenFeed(rotating(front), 0xd1ff, func() { front.Estimate() }, func(xs []uint64) {
				writes++
				serial.ProcessBatch(xs)
				ref := referenceMerge(front)
				est, _, cached := front.EstimateVersioned()
				if cached {
					t.Fatalf("%s replicas=%d write %d: estimate after a write was a cache hit", kind.name, reps, writes)
				}
				if want := ref.Estimate(); est != want {
					t.Fatalf("%s replicas=%d write %d: estimate %v != reference merge %v", kind.name, reps, writes, est, want)
				}
				requireTarget(t, fmt.Sprintf("%s replicas=%d write %d", kind.name, reps, writes), front, ref)
				if want := serial.Estimate(); est != want {
					t.Fatalf("%s replicas=%d write %d: estimate %v != serial %v", kind.name, reps, writes, est, want)
				}
				if !bytes.Equal(AppendSketch(nil, front.MergedClone()), AppendSketch(nil, serial)) {
					t.Fatalf("%s replicas=%d write %d: merged clone's snapshot differs from the serial sketch's", kind.name, reps, writes)
				}
			})
		}
	}
}

// replayProbe records, around one drain, what the test needs to see that
// the replay path did real work: whether the drain only replayed logs
// (no replica past replica 0 stale) and replica 0's Bucketing level or
// Minimum minima before it.
type replayProbe struct {
	replayOnly bool
	level      int
	fullEst    float64 // Minimum's estimate while every copy is full, else NaN
}

func probeTarget(front *Concurrent) replayProbe {
	p := replayProbe{replayOnly: true, fullEst: math.NaN()}
	for _, r := range front.inUse()[1:] {
		p.replayOnly = p.replayOnly && !r.stale
	}
	switch target := front.replicas[0].sk.(type) {
	case *Bucketing:
		p.level = target.MaxLevel()
	case *Minimum:
		full := true
		for i := 0; i < target.sk.Copies(); i++ {
			_, set := target.sk.Copy(i)
			full = full && set.Full()
		}
		if full {
			p.fullEst = target.Estimate()
		}
	}
	return p
}

// TestConcurrentReplayDifferential drives replica 0, the front's merge
// target, through every drain path at 2 and 4 replicas, with every write
// steered onto the next replica in rotation after a first round that
// builds them all: single writes below the replay cap, exactly at it and
// past it (the stale fallback), and rounds that fill every replica's
// log (replica 0 keeps none) over two writes to exactly the cap or one
// element past it. Those cap-probing writes carry elements no replica
// has seen, since a replica's cache drops the ones it holds. The feed's distinct elements grow well past thresh, so
// Bucketing raises levels and Minimum evicts minima in drains that only
// replay. After every write an independent merge of the replicas
// (referenceMerge) must match a serial sketch; after every round the
// miss must too, bit for bit, replica 0 and the MergedClone must hold the
// bytes of the reference taken before the miss, replica 0 must hold no
// log, and Bucketing's replica 0 must hold the reference's level and
// cell count in every copy. A write steered onto replica 0 never leaves
// it stale: it lands in the target.
func TestConcurrentReplayDifferential(t *testing.T) {
	for _, kind := range concurrentGoldenKinds {
		for _, reps := range []int{2, 4} {
			name := fmt.Sprintf("%s/replicas=%d", kind.name, reps)
			front := NewConcurrent(kind.mk(), reps)
			serial := kind.mk()
			logCap := serial.(Sketch).replayCap()
			unit := max(logCap, 1) // a batch size that is ≥ 1 for the kinds that never log
			rng := stats.NewRNG(0x7e91a4)
			pool := make([]uint64, 3000)
			for i := range pool {
				pool[i] = rng.Uint64() >> (64 - concurrentGoldenBits)
			}
			live, writes := 0, 0
			drawn := func() uint64 { return pool[rng.Uint64n(uint64(live))] }
			// The cap-probing writes carry fresh elements, drawn once and
			// never from the pool, so no replica's cache drops any of
			// them: each such write hands its replica exactly its size.
			seen := make(map[uint64]bool, len(pool))
			for _, x := range pool {
				seen[x] = true
			}
			fresh := func() uint64 {
				for {
					if x := rng.Uint64() >> (64 - concurrentGoldenBits); !seen[x] {
						seen[x] = true
						return x
					}
				}
			}
			steer := rotating(front)
			write := func(size int, draw func() uint64) {
				xs := make([]uint64, size)
				for k := range xs {
					xs[k] = draw()
				}
				steer(xs)
				serial.ProcessBatch(xs)
				writes++
				if got, want := referenceMerge(front).Estimate(), serial.Estimate(); got != want {
					t.Fatalf("%s write %d: reference merge %v != serial %v", name, writes, got, want)
				}
			}
			var misses, raises, evictions, staleDrains int
			check := func() {
				before := probeTarget(front)
				if misses > 0 && !before.replayOnly {
					staleDrains++
				}
				misses++
				merged := referenceMerge(front)
				est, _, cached := front.EstimateVersioned()
				if cached {
					t.Fatalf("%s write %d: estimate after a write was a cache hit", name, writes)
				}
				requireTarget(t, fmt.Sprintf("%s write %d", name, writes), front, merged)
				if want := merged.Estimate(); est != want {
					t.Fatalf("%s write %d: estimate %v != reference merge %v", name, writes, est, want)
				}
				if !bytes.Equal(AppendSketch(nil, front.MergedClone()), AppendSketch(nil, merged)) {
					t.Fatalf("%s write %d: merged clone's snapshot differs from the reference merge's", name, writes)
				}
				if want := serial.Estimate(); est != want {
					t.Fatalf("%s write %d: estimate %v != serial %v", name, writes, est, want)
				}
				after := probeTarget(front)
				if before.replayOnly && after.level > before.level {
					raises++
				}
				if before.replayOnly && !math.IsNaN(before.fullEst) && after.fullEst != before.fullEst {
					evictions++
				}
				if b, ok := merged.(*Bucketing); ok {
					target := front.replicas[0].sk.(*Bucketing)
					for i, c := range b.copies {
						if a := target.copies[i]; a.level != c.level || a.size() != c.size() {
							t.Fatalf("%s write %d copy %d: target at level %d with %d cells, merged clone at %d with %d",
								name, writes, i, a.level, a.size(), c.level, c.size())
						}
					}
				}
			}
			// Build every replica, so that from the first miss on each
			// one holds a log.
			live = 20
			for r := 0; r < reps; r++ {
				write(1, drawn)
			}
			check()
			for round := 0; round < 60; round++ {
				live = min(len(pool), 20+40*round)
				switch round % 5 {
				case 0:
					write(max(unit/3, 1), drawn)
				case 1, 2:
					// A log holds exactly replayCap elements; one more
					// leaves the replica to a full merge, unless the
					// write took replica 0, which never logs.
					size := unit + round%5 - 1
					write(size, fresh)
					onTarget := writes%reps == 0
					if stale := !probeTarget(front).replayOnly; logCap > 0 && stale != (size > logCap && !onTarget) {
						t.Fatalf("%s write %d of %d elements: stale=%v, replay cap %d", name, writes, size, stale, logCap)
					}
				case 3, 4:
					// The writes rotate over the replicas, so each
					// replica takes one write of each size before the miss,
					// filling its log to the cap or one element past it.
					head := max(unit/2, 1)
					for _, size := range []int{head, unit - head + round%5 - 3} {
						for r := 0; r < reps && size > 0; r++ {
							write(size, fresh)
						}
					}
				}
				check()
			}
			if b, ok := front.MergedClone().(*Bucketing); ok && b.MaxLevel() < 2 {
				t.Fatalf("%s: feed left the sampling level at %d", name, b.MaxLevel())
			}
			if staleDrains == 0 {
				t.Errorf("%s: no miss merged a stale replica", name)
			}
			if kind.name == "bucketing" && raises == 0 {
				t.Errorf("%s: no replay-only miss raised the target's level", name)
			}
			if kind.name == "minimum" && evictions == 0 {
				t.Errorf("%s: no replay-only miss evicted a minimum from a full target", name)
			}
		}
	}
}

// Each replica caches the elements it holds and drops them from a write
// before absorbing it, so its log carries only elements new to it: a
// repeated write logs nothing and still counts in Version, and a write
// with one new element logs that element alone. A replica absorbs an
// element that only another replica holds.
func TestConcurrentReplicaCacheLogsNewElements(t *testing.T) {
	for _, kind := range concurrentGoldenKinds[:2] { // estimation never logs
		front := NewConcurrent(kind.mk(), 2)
		xs := []uint64{3, 5, 8, 13}
		writeOn(front, 0, xs)
		writeOn(front, 1, xs)
		r1 := front.inUse()[1]
		ref := kind.mk()
		ref.ProcessBatch(xs)
		if !bytes.Equal(AppendSketch(nil, r1.sk), AppendSketch(nil, ref)) {
			t.Fatalf("%s: replica 1 did not absorb elements only replica 0 held", kind.name)
		}
		front.Estimate() // the first drain gives replica 1 its log
		v := front.Version()
		writeOn(front, 1, xs)
		if len(r1.log) != 0 || front.Version() != v+1 {
			t.Fatalf("%s: a repeated write logged %v and moved the version from %d to %d", kind.name, r1.log, v, front.Version())
		}
		writeOn(front, 1, []uint64{8, 21, 3, 21})
		if !slices.Equal(r1.log, []uint64{21}) {
			t.Fatalf("%s: a write with one new element logged %v", kind.name, r1.log)
		}
	}
}
