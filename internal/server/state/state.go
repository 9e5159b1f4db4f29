// Package state is the f0d daemon's sketch registry: named, tenant-owned
// ConcurrentF0 sketches with per-tenant quota accounting and snapshot
// persistence through the mcf0 wire codec (atomic
// write-to-temp-then-rename of a .snap blob plus a .json metadata
// sidecar) with restore-on-boot crash recovery.
//
// Concurrency contract: the Registry mutex guards only the name → sketch
// map and the per-tenant counts. Ingestion and estimation never hold it —
// they ride ConcurrentF0's own lock-free front, which also owns the
// estimate cache — so a slow merge on one sketch never stalls ingest on
// another, and handlers may call AddBatch, Estimate, and Snapshot on the
// same sketch from any number of goroutines.
package state

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"mcf0"
)

// Registry errors, mapped to HTTP statuses by the handlers.
var (
	ErrExists    = errors.New("state: sketch already exists")
	ErrNotFound  = errors.New("state: sketch not found")
	ErrQuota     = errors.New("state: tenant sketch quota exhausted")
	ErrNoDataDir = errors.New("state: snapshot persistence disabled (no data directory)")
	// ErrBreakerOpen means the snapshot circuit breaker refused the
	// write: the disk failed repeatedly and the daemon is in serve-only
	// degraded mode. Handlers map it to 503 with a Retry-After.
	ErrBreakerOpen = errors.New("state: snapshot circuit breaker open (disk degraded)")
)

// DiskHook is the snapshot path's fault-injection seam: when non-nil it
// is consulted before each physical write phase ("mkdir", "create",
// "write", "rename") with the destination path; returning an error
// simulates a disk failure at that point. A failure in the "write" phase
// deliberately leaves the partial temp file behind, the wreckage a real
// crash would leave — Load cleans such strays on boot.
type DiskHook func(path, phase string) error

// nameRE bounds sketch and tenant names to one safe path element.
var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// ValidName reports whether s is acceptable as a sketch or tenant name:
// 1–64 characters from [A-Za-z0-9_.-], starting alphanumeric (so path
// traversal and dotfiles are unrepresentable).
func ValidName(s string) bool { return nameRE.MatchString(s) }

// SketchConfig is the creation-time configuration of a named sketch; it
// is echoed by the inspect endpoints and persisted in the snapshot
// metadata sidecar so a restore rebuilds the same front.
type SketchConfig struct {
	// Bits is the universe width (1–64).
	Bits int `json:"bits"`
	// Algorithm is the sketch family: bucketing, minimum, or estimation.
	Algorithm string `json:"algorithm"`
	// Epsilon, Delta, Thresh, Iterations, Seed parameterise mcf0.Config;
	// zero values select the paper constants (see mcf0.Config.Resolved).
	Epsilon    float64 `json:"epsilon,omitempty"`
	Delta      float64 `json:"delta,omitempty"`
	Thresh     int     `json:"thresh,omitempty"`
	Iterations int     `json:"iterations,omitempty"`
	Seed       uint64  `json:"seed,omitempty"`
	// Replicas sizes the lock-free concurrent front (0 = GOMAXPROCS, at
	// most MaxReplicas).
	Replicas int `json:"replicas,omitempty"`
}

// MaxReplicas bounds SketchConfig.Replicas at create and at restore: a
// front clones its sketch once per replica.
const MaxReplicas = 1024

// checkReplicas refuses a replica count outside [0, MaxReplicas].
func (c SketchConfig) checkReplicas() error {
	if c.Replicas < 0 || c.Replicas > MaxReplicas {
		return fmt.Errorf("replicas must be in [0, %d]", MaxReplicas)
	}
	return nil
}

// MCF0Config returns the library configuration the sketch is built with.
func (c SketchConfig) MCF0Config() mcf0.Config {
	return mcf0.Config{
		Epsilon:    c.Epsilon,
		Delta:      c.Delta,
		Thresh:     c.Thresh,
		Iterations: c.Iterations,
		Seed:       c.Seed,
	}
}

// Sketch is one live named sketch: a ConcurrentF0 front plus the
// bookkeeping the service layers on top (items accepted, snapshot
// dirtiness).
type Sketch struct {
	Tenant string
	Name   string
	Config SketchConfig

	front *mcf0.ConcurrentF0
	items atomic.Uint64

	snapMu      sync.Mutex
	snapped     bool   // a snapshot (or the boot restore) exists on disk
	snapVersion uint64 // front.Version() the last snapshot covered
}

// AddBatch ingests a validated chunk through the lock-free front; safe
// from any goroutine. Elements must already be range-checked against
// Config.Bits (the handler's job — the front panics on violations). A
// failed sketch ingests and counts nothing (see Err).
func (s *Sketch) AddBatch(xs []uint64) {
	s.front.AddBatch(xs)
	if s.front.Err() == nil {
		s.items.Add(uint64(len(xs)))
	}
}

// Estimate returns the current estimate, the write-version it covers,
// and whether the front served it from its cache. A failed sketch
// returns zeros (see Err).
func (s *Sketch) Estimate() (est float64, version uint64, cached bool) {
	return s.front.EstimateVersioned()
}

// Err returns the sketch's failure, an error wrapping
// mcf0.ErrSketchFailed, or nil while it is healthy. A failure is final:
// the sketch answers nothing until it is deleted or restored from a
// snapshot.
func (s *Sketch) Err() error { return s.front.Err() }

// Items returns the number of elements accepted so far.
func (s *Sketch) Items() uint64 { return s.items.Load() }

// Version returns the front's completed-write counter.
func (s *Sketch) Version() uint64 { return s.front.Version() }

// SketchWords returns the summed replica footprint in 64-bit words. Once
// an estimate has missed on a sketch of two or more replicas, it also
// counts the merge target the front keeps, so P replicas report P+1
// copies.
func (s *Sketch) SketchWords() int { return s.front.SketchWords() }

// Replicas returns the front's replica count.
func (s *Sketch) Replicas() int { return s.front.Replicas() }

// Dirty reports whether the sketch has state no on-disk snapshot covers:
// it has never been snapshotted, or writes completed since the last one.
func (s *Sketch) Dirty() bool {
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	return !s.snapped || s.front.Version() != s.snapVersion
}

// SnapshotInfo describes one persisted snapshot.
type SnapshotInfo struct {
	// File is the blob's path relative to the registry's data directory.
	File string
	// Bytes is the encoded blob size.
	Bytes int
	// Items and Version are the sketch's counters when the snapshot was
	// cut (Version is conservative: writes racing the encode re-dirty
	// the sketch and land in the next snapshot).
	Items   uint64
	Version uint64
}

// snapshotMeta is the .json sidecar persisted next to each blob.
type snapshotMeta struct {
	Tenant string       `json:"tenant"`
	Name   string       `json:"name"`
	Items  uint64       `json:"items"`
	Config SketchConfig `json:"config"`
}

// Registry maps (tenant, name) to live sketches.
type Registry struct {
	dataDir string
	hook    DiskHook
	breaker *Breaker

	mu       sync.Mutex
	sketches map[string]*Sketch
	byTenant map[string]int
}

// NewRegistry returns an empty registry persisting snapshots under
// dataDir ("" disables persistence; Snapshot then fails with
// ErrNoDataDir and Load is a no-op). The snapshot circuit breaker
// defaults to 3 consecutive failures / 10s cooldown; override with
// SetBreaker before serving.
func NewRegistry(dataDir string) *Registry {
	return &Registry{
		dataDir:  dataDir,
		breaker:  NewBreaker(0, 0, nil),
		sketches: make(map[string]*Sketch),
		byTenant: make(map[string]int),
	}
}

// SetDiskHook installs the snapshot write fault-injection seam (chaos
// tests); call before serving.
func (r *Registry) SetDiskHook(h DiskHook) { r.hook = h }

// SetBreaker replaces the snapshot circuit breaker (the server wires
// configured thresholds and its clock here); call before serving.
func (r *Registry) SetBreaker(b *Breaker) {
	if b != nil {
		r.breaker = b
	}
}

// Breaker exposes the snapshot circuit breaker (healthz and metrics
// report its state).
func (r *Registry) Breaker() *Breaker { return r.breaker }

func key(tenant, name string) string { return tenant + "/" + name }

// Create registers a new sketch. maxSketches > 0 bounds the tenant's
// live-sketch count (ErrQuota beyond it); invalid configurations are
// rejected by the replica bound and mcf0.NewConcurrentF0's own
// validation.
func (r *Registry) Create(tenant, name string, cfg SketchConfig, maxSketches int) (*Sketch, error) {
	if !ValidName(name) {
		return nil, fmt.Errorf("state: invalid sketch name %q (want %s)", name, nameRE)
	}
	if err := cfg.checkReplicas(); err != nil {
		return nil, err
	}
	front, err := mcf0.NewConcurrentF0(cfg.Bits, mcf0.Algorithm(cfg.Algorithm), cfg.MCF0Config(), cfg.Replicas)
	if err != nil {
		return nil, err
	}
	sk := &Sketch{Tenant: tenant, Name: name, Config: cfg, front: front}

	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.sketches[key(tenant, name)]; ok {
		return nil, ErrExists
	}
	if maxSketches > 0 && r.byTenant[tenant] >= maxSketches {
		return nil, ErrQuota
	}
	r.sketches[key(tenant, name)] = sk
	r.byTenant[tenant]++
	return sk, nil
}

// Get returns the named sketch, or ErrNotFound.
func (r *Registry) Get(tenant, name string) (*Sketch, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	sk, ok := r.sketches[key(tenant, name)]
	if !ok {
		return nil, ErrNotFound
	}
	return sk, nil
}

// List returns the tenant's sketches sorted by name.
func (r *Registry) List(tenant string) []*Sketch {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []*Sketch
	for _, sk := range r.sketches {
		if sk.Tenant == tenant {
			out = append(out, sk)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Delete removes the named sketch and its persisted snapshot files.
func (r *Registry) Delete(tenant, name string) error {
	r.mu.Lock()
	sk, ok := r.sketches[key(tenant, name)]
	if ok {
		delete(r.sketches, key(tenant, name))
		r.byTenant[tenant]--
	}
	r.mu.Unlock()
	if !ok {
		return ErrNotFound
	}
	if r.dataDir != "" {
		os.Remove(filepath.Join(r.dataDir, sk.Tenant, sk.Name+".snap"))
		os.Remove(filepath.Join(r.dataDir, sk.Tenant, sk.Name+".json"))
	}
	return nil
}

// CountByTenant returns live-sketch counts per tenant (the f0d_sketches
// gauge's source).
func (r *Registry) CountByTenant() map[string]int {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]int, len(r.byTenant))
	for t, n := range r.byTenant {
		if n > 0 {
			out[t] = n
		}
	}
	return out
}

// WordsByTenant returns the summed sketch footprint per tenant in 64-bit
// words (the f0d_sketch_words gauge's source).
func (r *Registry) WordsByTenant() map[string]int { return r.sumByTenant((*Sketch).SketchWords) }

// FailedByTenant returns, for every tenant with a live sketch, how many
// of its sketches have failed (Err non-nil; the f0d_sketches_failed
// gauge's source).
func (r *Registry) FailedByTenant() map[string]int {
	return r.sumByTenant(func(sk *Sketch) int {
		if sk.Err() != nil {
			return 1
		}
		return 0
	})
}

// sumByTenant sums f over the live sketches of each tenant, calling it
// outside the registry lock.
func (r *Registry) sumByTenant(f func(*Sketch) int) map[string]int {
	r.mu.Lock()
	sketches := make([]*Sketch, 0, len(r.sketches))
	for _, sk := range r.sketches {
		sketches = append(sketches, sk)
	}
	r.mu.Unlock()
	out := make(map[string]int)
	for _, sk := range sketches {
		out[sk.Tenant] += f(sk)
	}
	return out
}

// All returns every live sketch (any tenant), sorted by tenant then name.
func (r *Registry) All() []*Sketch {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*Sketch, 0, len(r.sketches))
	for _, sk := range r.sketches {
		out = append(out, sk)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Tenant != out[j].Tenant {
			return out[i].Tenant < out[j].Tenant
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// Snapshot encodes the sketch's complete merged state (wire codec) and
// persists blob + metadata sidecar atomically under the data directory.
// Ingestion may continue concurrently: the snapshot covers at least the
// writes completed when it was cut, and anything racing it re-dirties
// the sketch. While the circuit breaker is open the write is refused
// with ErrBreakerOpen — serve-only degraded mode.
func (r *Registry) Snapshot(sk *Sketch) (SnapshotInfo, error) {
	return r.snapshot(sk, false)
}

// snapshot is Snapshot with a force escape hatch: the shutdown path
// bypasses the breaker's admission check (a last-chance write to a disk
// that may have healed beats guaranteed data loss), though failures
// still count against the breaker.
func (r *Registry) snapshot(sk *Sketch, force bool) (SnapshotInfo, error) {
	if r.dataDir == "" {
		return SnapshotInfo{}, ErrNoDataDir
	}
	if !force && !r.breaker.Allow() {
		return SnapshotInfo{}, ErrBreakerOpen
	}
	sk.snapMu.Lock()
	defer sk.snapMu.Unlock()
	version := sk.front.Version()
	items := sk.items.Load()
	blob, err := sk.front.MarshalBinary()
	if err != nil {
		// Encoding failures are not disk failures; they do not move the
		// breaker (and a forced path must not mask them either).
		return SnapshotInfo{}, err
	}
	meta, err := json.Marshal(snapshotMeta{Tenant: sk.Tenant, Name: sk.Name, Items: items, Config: sk.Config})
	if err != nil {
		return SnapshotInfo{}, err
	}
	if err := r.persist(sk, blob, meta); err != nil {
		r.breaker.Failure()
		return SnapshotInfo{}, err
	}
	r.breaker.Success()
	sk.snapped, sk.snapVersion = true, version
	return SnapshotInfo{
		File:    filepath.Join(sk.Tenant, sk.Name+".snap"),
		Bytes:   len(blob),
		Items:   items,
		Version: version,
	}, nil
}

// persist performs the disk phase of a snapshot: mkdir, then the two
// atomic (temp + fsync + rename + dir-fsync) writes.
func (r *Registry) persist(sk *Sketch, blob, meta []byte) error {
	dir := filepath.Join(r.dataDir, sk.Tenant)
	if r.hook != nil {
		if err := r.hook(dir, "mkdir"); err != nil {
			return err
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := r.writeAtomic(filepath.Join(dir, sk.Name+".snap"), blob); err != nil {
		return err
	}
	return r.writeAtomic(filepath.Join(dir, sk.Name+".json"), meta)
}

// SnapshotDirty persists every dirty sketch (the graceful-shutdown path)
// and returns how many it wrote. It keeps going past per-sketch failures
// and returns the first error. This path bypasses the circuit breaker's
// admission check: shutdown is the last chance to persist, and a healed
// disk should be used even if the breaker has not probed it yet.
func (r *Registry) SnapshotDirty() (int, error) {
	if r.dataDir == "" {
		return 0, nil
	}
	var firstErr error
	written := 0
	for _, sk := range r.All() {
		if !sk.Dirty() {
			continue
		}
		if _, err := r.snapshot(sk, true); err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("state: snapshot %s/%s: %w", sk.Tenant, sk.Name, err)
			}
			continue
		}
		written++
	}
	return written, firstErr
}

// Load restores every persisted sketch from the data directory (the
// restore-on-boot path), returning how many it loaded. A corrupt or
// mismatched snapshot aborts the boot with an error naming the file —
// refusing to serve is safer than silently dropping a tenant's data.
func (r *Registry) Load() (int, error) {
	if r.dataDir == "" {
		return 0, nil
	}
	// Stale temp files are the wreckage of writes torn by a crash or an
	// injected disk failure; the atomic rename never exposed them to
	// readers, so they are safe to discard — the last completed rename
	// remains the snapshot of record.
	if strays, err := filepath.Glob(filepath.Join(r.dataDir, "*", "*.tmp*")); err == nil {
		for _, s := range strays {
			os.Remove(s)
		}
	}
	metas, err := filepath.Glob(filepath.Join(r.dataDir, "*", "*.json"))
	if err != nil {
		return 0, err
	}
	sort.Strings(metas)
	loaded := 0
	for _, metaPath := range metas {
		raw, err := os.ReadFile(metaPath)
		if err != nil {
			return loaded, err
		}
		var meta snapshotMeta
		if err := json.Unmarshal(raw, &meta); err != nil {
			return loaded, fmt.Errorf("state: corrupt snapshot metadata %s: %w", metaPath, err)
		}
		if !ValidName(meta.Tenant) || !ValidName(meta.Name) {
			return loaded, fmt.Errorf("state: snapshot metadata %s names invalid sketch %q/%q", metaPath, meta.Tenant, meta.Name)
		}
		if err := meta.Config.checkReplicas(); err != nil {
			return loaded, fmt.Errorf("state: snapshot metadata %s: %w", metaPath, err)
		}
		snapPath := strings.TrimSuffix(metaPath, ".json") + ".snap"
		blob, err := os.ReadFile(snapPath)
		if err != nil {
			return loaded, err
		}
		front, err := mcf0.DecodeConcurrentF0(blob, meta.Config.Replicas)
		if err != nil {
			return loaded, fmt.Errorf("state: corrupt snapshot %s: %w", snapPath, err)
		}
		if front.Bits() != meta.Config.Bits {
			return loaded, fmt.Errorf("state: snapshot %s is %d bits wide but its metadata says %d",
				snapPath, front.Bits(), meta.Config.Bits)
		}
		sk := &Sketch{Tenant: meta.Tenant, Name: meta.Name, Config: meta.Config, front: front,
			snapped: true, snapVersion: 0}
		sk.items.Store(meta.Items)

		r.mu.Lock()
		if _, ok := r.sketches[key(meta.Tenant, meta.Name)]; ok {
			r.mu.Unlock()
			return loaded, fmt.Errorf("state: duplicate snapshot for %s/%s", meta.Tenant, meta.Name)
		}
		r.sketches[key(meta.Tenant, meta.Name)] = sk
		r.byTenant[meta.Tenant]++
		r.mu.Unlock()
		loaded++
	}
	return loaded, nil
}

// writeAtomic writes data to path via temp file + fsync + rename +
// directory fsync, so readers (and a crash mid-write) never observe a
// partial file AND a completed rename survives power loss, not just
// process death — without the two syncs, the rename can hit disk before
// the data, leaving a correctly-named file of garbage after a crash.
// The hook phases ("create", "write", "rename") are the fault-injection
// seam; an injected "write" failure leaves the partial temp file behind
// exactly as a crash would.
func (r *Registry) writeAtomic(path string, data []byte) error {
	if r.hook != nil {
		if err := r.hook(path, "create"); err != nil {
			return err
		}
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data[:len(data)/2]); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if r.hook != nil {
		// Fail between the two half-writes: the temp file is left
		// partially written, like a torn crash write.
		if err := r.hook(path, "write"); err != nil {
			tmp.Close()
			return err
		}
	}
	if _, err := tmp.Write(data[len(data)/2:]); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if r.hook != nil {
		if err := r.hook(path, "rename"); err != nil {
			os.Remove(tmp.Name())
			return err
		}
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return syncDir(filepath.Dir(path))
}

// syncDir fsyncs a directory so a completed rename is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
