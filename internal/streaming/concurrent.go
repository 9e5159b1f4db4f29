package streaming

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"unsafe"

	"mcf0/internal/par"
)

// ErrFailed is wrapped by every error of a Concurrent front whose sketch
// panicked: the state of the replica the panic left cannot be
// trusted, so the front answers nothing more.
var ErrFailed = errors.New("streaming: sketch failed")

// Concurrent is a lock-free-ingestion front over any mergeable Sketch:
// up to P replicas sharing one seed's hash draws, each padded onto its
// own cache lines. ProcessBatch may be called from any number of
// goroutines concurrently — a caller claims the lowest replica it can
// TryLock, so ingestion never serialises on a shared lock. Replicas are
// built on demand: the front starts with the seed as replica 0, and a
// writer that finds every built replica held by other writers builds the
// next one, an empty sibling of the seed, until P exist. One writer at a
// time therefore keeps one replica, and a front holds as many as the
// concurrency its writers reached. Estimate locks all built replicas,
// brings replica 0 up to date with the others, and caches its answer
// until the next write; a cached answer is served without touching any
// replica lock. MergedClone clones replica 0 the same way.
//
// Because every sketch in this package is an idempotent, order-
// insensitive function of the element set and the replicas share draws,
// the merged state — and therefore the estimate and the snapshot bytes —
// does not depend on which replica absorbed which element: fixed-seed
// estimates and snapshots are bit-identical to a single serial sketch's
// at every replica count.
//
// The same argument makes replica 0 the merged state and lets a miss
// work in proportion to what changed. Replica 0 is the merge target and
// never logs: its writes already land in the target. Once replica 0 has
// absorbed another replica, that replica logs by value the elements it
// takes in, and the next miss replays the log into replica 0, skipping
// replicas with an empty log: replica 0 holds the state of the union at
// the last miss and of its own writes since, and each other replica's
// set grew by its log, so replica 0 ends as the state of the union — what
// a fresh clone-and-merge builds. A log is capped at the sketch's
// replayCap; a write past the cap drops the log and marks the replica
// stale, and a miss merges stale replicas in full, as it does a replica
// built since the last miss.
//
// Estimate and ProcessBatch are safe to interleave freely;
// SketchWords reports the summed footprint of the built replicas and
// their logs.
//
// A sketch call that panics under a lock — an absorb, a merge, a replay —
// releases every lock it held and fails the front, and Err reports the
// failure from then on, so a half-updated replica 0 is never read. That
// call and every later one return at once without touching a sketch:
// writes absorb nothing, estimates are 0 and MergedClone is nil. Nothing
// waits on the failed replica.
type Concurrent struct {
	// replicas has one slot per allowed replica; slots [0, built) are in
	// use. A writer holding grow fills slot built with a replica whose
	// lock it already holds, then bumps built, and builds the sketch
	// after releasing grow.
	replicas []*replica
	built    atomic.Int32
	// grow serialises growth and shuts it out of every path that locks
	// replicas for reading: lockAll and SketchWords hold it while they
	// lock, so a writer builds a replica only when every built one is
	// held by another writer, and the built set is fixed under lockAll.
	grow sync.Mutex
	// version counts completed writes; it is bumped *before* the replica
	// lock releases, so once a merge holds every lock the version it
	// reads covers exactly the writes the merge will see. In-flight
	// writers are still blocked and bump it later, invalidating the cache.
	version atomic.Uint64

	// estMu guards the estimate cache: the last merged estimate and the
	// version it covers.
	estMu    sync.Mutex
	cached   float64
	cachedV  uint64
	hasCache bool

	// failed is the front's failure, nil while it is healthy; it is set
	// once, before the failing call releases its locks.
	failed atomic.Pointer[error]
}

// replicaState is the payload of one replica slot: its lock and sketch,
// and the log or stale mark of what replica 0 has not absorbed.
type replicaState struct {
	mu    sync.Mutex
	sk    Sketch
	log   []uint64
	stale bool
}

// replicaSpan is the stride replicas are padded to: two cache lines, so
// writers hammering neighbouring replicas never false-share (the spatial
// prefetcher pairs adjacent 64-byte lines).
const replicaSpan = 128

// replica pads each sketch's state onto its own cache lines: each is
// allocated on its own in the replicaSpan size class. The pad is
// computed from the real field layout — unsafe.Sizeof is a compile-time
// constant — so it stays correct across pointer widths and future field
// changes instead of hard-coding the 64-bit layout's 24 bytes.
type replica struct {
	replicaState
	_ [(replicaSpan - unsafe.Sizeof(replicaState{})%replicaSpan) % replicaSpan]byte
}

// NewConcurrent wraps seed in a concurrent front of at most the given
// number of replicas (≤ 0 selects GOMAXPROCS). The seed, with whatever
// state it holds, is absorbed as replica 0 — callers must not touch it
// afterwards. Every later replica starts empty and shares the seed's
// hash draws, the precondition Merge requires.
func NewConcurrent(seed Sketch, replicas int) *Concurrent {
	if replicas < 1 {
		replicas = par.Workers(0)
	}
	c := &Concurrent{replicas: make([]*replica, replicas)}
	// Replica 0 is the target, so ProcessBatch must never log its
	// writes: it stays stale for good, and merged never reads its mark.
	c.replicas[0] = &replica{replicaState: replicaState{sk: seed, stale: true}}
	c.built.Store(1)
	return c
}

// Replicas returns the replica cap, the count the front was built with.
func (c *Concurrent) Replicas() int { return len(c.replicas) }

// inUse returns the built replicas; while grow is held, no more are
// built.
func (c *Concurrent) inUse() []*replica { return c.replicas[:c.built.Load()] }

// Version returns the number of completed writes (ProcessBatch calls)
// absorbed so far. Estimate's cache is keyed on this counter, so
// two Version calls returning the same value bracket a window in which
// estimates are served from cache; EstimateVersioned reports the cache
// outcome directly.
func (c *Concurrent) Version() uint64 { return c.version.Load() }

// Err returns the front's failure, an error wrapping ErrFailed, or nil
// while it is healthy.
func (c *Concurrent) Err() error {
	if p := c.failed.Load(); p != nil {
		return *p
	}
	return nil
}

// fail records the panic p recovered from a sketch call as the front's
// failure, unless one is recorded already, and returns the failure.
func (c *Concurrent) fail(p any) error {
	err := fmt.Errorf("%w: %v", ErrFailed, p)
	c.failed.CompareAndSwap(nil, &err)
	return c.Err()
}

// acquire claims a replica without ever blocking on a contended lock
// while any replica is free: it tries the built replicas lowest first,
// and when all are busy and no reader holds grow it adds the next slot,
// returning it with a nil sketch for the caller to build. It yields the
// scheduler only after a full idle cycle (every replica busy, at the cap
// or while a reader locks). It returns nil, holding no lock, once the
// front has failed.
func (c *Concurrent) acquire() *replica {
	for c.Err() == nil {
		r := c.tryFree()
		if r == nil && c.grow.TryLock() {
			// With grow held no reader holds a replica lock, so a
			// replica still busy now is busy with another writer.
			if r = c.tryFree(); r == nil {
				r = c.addSlot()
			}
			c.grow.Unlock()
		}
		if r == nil {
			runtime.Gosched()
			continue
		}
		if c.Err() != nil {
			r.mu.Unlock()
			return nil
		}
		return r
	}
	return nil
}

// tryFree locks and returns the lowest built replica whose lock is free,
// or returns nil.
func (c *Concurrent) tryFree() *replica {
	for _, r := range c.inUse() {
		if r.mu.TryLock() {
			return r
		}
	}
	return nil
}

// addSlot, called with grow held, puts a locked replica with no sketch
// into the next slot and returns it, or returns nil at the cap.
func (c *Concurrent) addSlot() *replica {
	n := c.built.Load()
	if int(n) == len(c.replicas) {
		return nil
	}
	r := new(replica)
	r.mu.Lock()
	c.replicas[n] = r
	c.built.Store(n + 1)
	return r
}

// release publishes a completed write (invalidating the estimate cache)
// and frees the replica.
func (c *Concurrent) release(r *replica) {
	c.version.Add(1)
	r.mu.Unlock()
}

// Unchanged records a completed write whose elements the front already
// holds, so it counts in Version like any ProcessBatch, without claiming
// a replica. On a failed front it records nothing.
func (c *Concurrent) Unchanged() {
	if c.Err() == nil {
		c.version.Add(1)
	}
}

// ProcessBatch absorbs a chunk of elements into the lowest free replica,
// building one when every built replica is busy; the whole chunk lands
// on one replica, amortising acquisition. On a failed front it absorbs
// nothing.
func (c *Concurrent) ProcessBatch(xs []uint64) {
	if len(xs) == 0 {
		return
	}
	r := c.acquire()
	if r == nil {
		return
	}
	defer func() {
		if p := recover(); p != nil {
			c.fail(p)
		}
		c.release(r)
	}()
	if r.sk == nil {
		// A new slot: replica 0's draws never change, so reading them
		// needs no lock. Stale, the next drain merges it in full.
		r.sk, r.stale = c.replicas[0].sk.sibling(), true
	}
	r.sk.ProcessBatch(xs)
	if !r.stale {
		if len(r.log)+len(xs) <= cap(r.log) {
			r.log = append(r.log, xs...)
		} else {
			r.log, r.stale = r.log[:0], true
		}
	}
}

// Estimate merges the replicas and returns the combined estimate —
// bit-identical to a single sketch having ingested every element. The
// merged answer is cached and reused until the next completed write.
func (c *Concurrent) Estimate() float64 {
	est, _, _ := c.EstimateVersioned()
	return est
}

// EstimateVersioned is Estimate that also reports the write-version the
// answer covers and whether it came from the cache. A cache hit compares
// the version counter under the cache mutex and takes no replica lock, so
// it never waits for a writer partway through a batch. On a miss the
// version is read with every replica locked: it counts exactly the writes
// the merge saw. A failed front returns zeros.
func (c *Concurrent) EstimateVersioned() (est float64, version uint64, cached bool) {
	c.estMu.Lock()
	defer c.estMu.Unlock()
	if c.Err() != nil {
		return 0, 0, false
	}
	if v := c.version.Load(); c.hasCache && v == c.cachedV {
		return c.cached, v, true
	}
	version, est, err := c.estimateMiss()
	if err != nil {
		return 0, 0, false
	}
	c.cached, c.cachedV, c.hasCache = est, version, true
	return est, version, false
}

// estimateMiss computes the merged state's estimate under every replica
// lock. It returns the version read under the locks, or the front's
// failure.
func (c *Concurrent) estimateMiss() (version uint64, est float64, err error) {
	if err := c.lockAll(); err != nil {
		return 0, 0, err
	}
	defer c.unlockAll(&err)
	return c.version.Load(), c.merged().Estimate(), nil
}

// MergedClone locks every built replica and returns a deep copy of their
// merged state — the snapshot primitive: the returned sketch shares no
// mutable state with the front (only the immutable hash draws), so it can
// be marshaled or inspected while ingestion continues. A failed front
// returns nil.
func (c *Concurrent) MergedClone() Sketch {
	merged, _ := c.mergedClone() // nil whenever it fails
	return merged
}

// mergedClone clones merged under every replica lock.
func (c *Concurrent) mergedClone() (merged Sketch, err error) {
	if err := c.lockAll(); err != nil {
		return nil, err
	}
	defer c.unlockAll(&err)
	return c.merged().Clone(), nil
}

// merged drains replicas 1…k into replica 0 and returns it, the union of
// the built replicas. It merges each stale replica (a replica built since
// the last drain is one), replays each non-empty log and then empties it,
// allocating it at replayCap on the replica's first drain. The caller
// holds every replica lock and must not let the result escape them.
func (c *Concurrent) merged() Sketch {
	target := c.replicas[0].sk
	for _, r := range c.inUse()[1:] {
		if r.stale {
			merge(target, r.sk)
		} else if len(r.log) > 0 {
			target.ProcessBatch(r.log)
		}
		if r.log == nil {
			r.log = make([]uint64, 0, target.replayCap())
		}
		r.log, r.stale = r.log[:0], false
	}
	return target
}

// merge folds replica src into dst. Replicas are clones of one seed, so
// a mismatch means the front's own invariant broke, not a caller error.
func merge(dst, src Sketch) {
	if err := dst.Merge(src); err != nil {
		panic("streaming: concurrent replicas diverged: " + err.Error())
	}
}

// lockAll takes grow, so no replica is built meanwhile, and every built
// replica's lock, or returns the front's failure holding none. A caller
// that got the locks defers unlockAll with its error result.
func (c *Concurrent) lockAll() error {
	c.grow.Lock()
	for _, r := range c.inUse() {
		r.mu.Lock()
	}
	if err := c.Err(); err != nil {
		c.unlockAll(nil)
		return err
	}
	return nil
}

// unlockAll releases every lock lockAll took. Deferred with a caller's error
// result, it first turns a panic under the locks into the front's
// failure, so a merge or replay that panics leaves no lock held and the
// replica 0 it may have half-updated is never read again.
func (c *Concurrent) unlockAll(err *error) {
	if err != nil {
		if p := recover(); p != nil {
			*err = c.fail(p)
		}
	}
	for _, r := range c.inUse() {
		r.mu.Unlock()
	}
	c.grow.Unlock()
}

// SketchWords reports the summed footprint of the built replicas and of
// their logs, each charged at its full capacity from the first drain
// that reaches it on (replica 0 keeps none). It holds grow while it
// visits the replicas, so a writer it keeps waiting builds no replica.
func (c *Concurrent) SketchWords() int {
	total := 0
	c.grow.Lock()
	defer c.grow.Unlock()
	for _, r := range c.inUse() {
		r.mu.Lock()
		if r.sk != nil { // nil only where a failed build failed the front
			total += r.sk.SketchWords()
		}
		total += cap(r.log)
		r.mu.Unlock()
	}
	return total
}
