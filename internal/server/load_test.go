package server_test

import (
	"bufio"
	"net/http"
	"net/http/httptest"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"mcf0"
	"mcf0/internal/server"
	"mcf0/internal/server/middleware"
)

func testSpec() loadSpec {
	return loadSpec{
		Seed: 7, Ops: 600, Clients: 4, Bits: 22, Batch: 32,
		IngestWeight: 80, EstimateWeight: 18, SnapshotWeight: 2,
		Keys: 5000, ZipfS: 1.3,
	}
}

// opSequence renders a spec's whole op sequence: per op, its kind
// followed by its ingest elements.
func opSequence(s loadSpec) [][]uint64 {
	seq := make([][]uint64, s.Ops)
	for i := range seq {
		kind := s.Kind(i)
		seq[i] = []uint64{uint64(kind)}
		if kind == opIngest {
			seq[i] = append(seq[i], s.Elements(i, nil)...)
		}
	}
	return seq
}

// TestReplayDeterminism is determinism invariant 8: equal specs generate
// identical op sequences, and full runs at different client and replica
// counts leave the target with bit-identical final estimates (the
// generated element set does not depend on scheduling) equal to a serial
// reference sketch over the generated ingest stream.
func TestReplayDeterminism(t *testing.T) {
	spec := testSpec()
	a, b := opSequence(spec), opSequence(spec)
	if len(a) == 0 || !reflect.DeepEqual(a, b) {
		t.Fatal("two generations of one spec differ")
	}

	run := func(clients, replicas int) float64 {
		s := spec
		s.Clients = clients
		front, err := mcf0.NewConcurrentF0(s.Bits, mcf0.AlgorithmBucketing, mcf0.Config{Seed: 99}, replicas)
		if err != nil {
			t.Fatal(err)
		}
		target := inProcTarget{front}
		counts, err := runLoad(s, target)
		if err != nil {
			t.Fatal(err)
		}
		ops, errs := counts.total()
		if ops != uint64(s.Ops) {
			t.Fatalf("ran %d ops, want %d", ops, s.Ops)
		}
		if errs != 0 {
			t.Fatalf("%d errors against in-process front", errs)
		}
		est, _ := target.Estimate()
		return est
	}
	first := run(1, 1)
	for _, c := range []struct{ clients, replicas int }{{2, 2}, {4, 3}, {8, 1}} {
		if got := run(c.clients, c.replicas); got != first {
			t.Fatalf("clients=%d replicas=%d estimate %v != clients=1 estimate %v",
				c.clients, c.replicas, got, first)
		}
	}

	// And the runs match a serial reference sketch over the extracted
	// ingest stream, the anchor the soak tests reuse.
	ref, err := mcf0.NewF0(spec.Bits, mcf0.AlgorithmBucketing, mcf0.Config{Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	ref.AddBatch(spec.IngestedElements())
	if want := ref.Estimate(); first != want {
		t.Fatalf("load estimate %v != serial reference %v", first, want)
	}
}

// TestSpecSensitivity: changing any generation parameter must change the
// op sequence (otherwise the field silently does nothing).
func TestSpecSensitivity(t *testing.T) {
	base := testSpec()
	ref := opSequence(base)
	mutations := map[string]func(*loadSpec){
		"seed":  func(s *loadSpec) { s.Seed++ },
		"batch": func(s *loadSpec) { s.Batch++ },
		"bits":  func(s *loadSpec) { s.Bits-- },
		"zipf":  func(s *loadSpec) { s.ZipfS = 0 },
		"keys":  func(s *loadSpec) { s.Keys = 50 },
		"mix":   func(s *loadSpec) { s.IngestWeight = 10 },
	}
	for name, mutate := range mutations {
		s := base
		mutate(&s)
		if reflect.DeepEqual(opSequence(s), ref) {
			t.Errorf("mutating %s left the op sequence unchanged", name)
		}
	}
}

// TestElementsInUniverse: generated elements respect the universe bound
// for widths straddling the word boundary.
func TestElementsInUniverse(t *testing.T) {
	for _, bits := range []int{1, 7, 53, 63, 64} {
		s := loadSpec{Seed: 3, Ops: 50, Clients: 1, Bits: bits, Batch: 64,
			IngestWeight: 1, ZipfS: 1.5}
		if err := s.Validate(); err != nil {
			t.Fatal(err)
		}
		var scratch []uint64
		for i := 0; i < s.Ops; i++ {
			scratch = s.Elements(i, scratch)
			if len(scratch) != s.Batch {
				t.Fatalf("bits=%d: batch length %d", bits, len(scratch))
			}
			for _, x := range scratch {
				if bits < 64 && x>>uint(bits) != 0 {
					t.Fatalf("bits=%d: element %d out of universe", bits, x)
				}
			}
		}
	}
}

// TestKindMix: over many ops the realized kind frequencies track the
// weights (loose band: the draw is pseudo-random, not stratified).
func TestKindMix(t *testing.T) {
	s := loadSpec{Seed: 11, Ops: 20000, Clients: 1, Bits: 16, Batch: 8,
		IngestWeight: 70, EstimateWeight: 25, SnapshotWeight: 5}
	var counts [numOpKinds]int
	for i := 0; i < s.Ops; i++ {
		counts[s.Kind(i)]++
	}
	total := float64(s.Ops)
	for k, want := range map[opKind]float64{opIngest: 0.70, opEstimate: 0.25, opSnapshot: 0.05} {
		got := float64(counts[k]) / total
		if got < want-0.02 || got > want+0.02 {
			t.Errorf("kind %s frequency %.3f, want ≈%.2f", k, got, want)
		}
	}
	// Zero-weight kinds never fire.
	s2 := s
	s2.SnapshotWeight = 0
	for i := 0; i < s2.Ops; i++ {
		if s2.Kind(i) == opSnapshot {
			t.Fatal("zero-weight snapshot op generated")
		}
	}
}

// TestSpecValidate sweeps the rejection paths.
func TestSpecValidate(t *testing.T) {
	bad := []func(*loadSpec){
		func(s *loadSpec) { s.Ops = 0 },
		func(s *loadSpec) { s.Clients = 0 },
		func(s *loadSpec) { s.Bits = 0 },
		func(s *loadSpec) { s.Bits = 65 },
		func(s *loadSpec) { s.Batch = 0 },
		func(s *loadSpec) { s.IngestWeight, s.EstimateWeight, s.SnapshotWeight = 0, 0, 0 },
		func(s *loadSpec) { s.IngestWeight = -1 },
		func(s *loadSpec) { s.ZipfS = 0.5 },
	}
	for i, mutate := range bad {
		s := testSpec()
		mutate(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
	good := testSpec()
	if err := good.Validate(); err != nil {
		t.Fatalf("baseline spec rejected: %v", err)
	}
}

// soakSpec is the mixed workload both HTTP soaks run.
func soakSpec() loadSpec {
	return loadSpec{
		Seed: 20210401, Ops: 300, Clients: 6, Bits: 20, Batch: 48,
		IngestWeight: 85, EstimateWeight: 13, SnapshotWeight: 2,
		Keys: 3000, ZipfS: 1.2,
	}
}

// serialEstimate is a fault-free serial Minimum sketch's estimate over
// the spec's ingest stream.
func serialEstimate(t *testing.T, spec loadSpec, seed uint64) float64 {
	t.Helper()
	ref, err := mcf0.NewF0(spec.Bits, mcf0.AlgorithmMinimum, mcf0.Config{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	ref.AddBatch(spec.IngestedElements())
	return ref.Estimate()
}

// TestSoakHTTPDeterminism: a short seeded mixed workload (multi-writer
// ingest, concurrent estimates, snapshots to a real data directory)
// drives an httptest-hosted f0d, and at the end the HTTP estimate must
// still equal an in-process serial sketch over the same generated
// stream — invariant 7 holding under concurrent mixed load, race-checked
// by the CI -race step.
func TestSoakHTTPDeterminism(t *testing.T) {
	srv, err := server.New(server.Config{
		Tenants: []middleware.TenantConfig{{Name: "soak", Token: "soak-token"}},
		DataDir: t.TempDir(),
		Logf:    func(string, ...any) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	spec := soakSpec()
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}

	const sketchSeed = 4242
	target := newHTTPTarget(ts.URL, "soak-token", "soak", ts.Client(), retryPolicy{})
	if err := target.CreateSketch(spec.Bits, "minimum", sketchSeed, 3); err != nil {
		t.Fatal(err)
	}

	counts, err := runLoad(spec, target)
	if err != nil {
		t.Fatal(err)
	}
	if ops, errs := counts.total(); ops != uint64(spec.Ops) {
		t.Fatalf("ran %d ops, want %d", ops, spec.Ops)
	} else if errs != 0 {
		t.Fatalf("%d errors under soak: %+v", errs, counts)
	}
	for k, n := range counts.ops {
		if n == 0 {
			t.Fatalf("mixed workload ran no %s op: %+v", opKind(k), counts)
		}
	}

	// Invariant 7: the served estimate equals the in-process estimate
	// over the union stream, bit-identically, after all the interleaved
	// writers, readers, and snapshots.
	got, err := target.Estimate()
	if err != nil {
		t.Fatal(err)
	}
	if want := serialEstimate(t, spec, sketchSeed); got != want {
		t.Fatalf("HTTP estimate after soak %v != in-process estimate %v", got, want)
	}

	// The delete path leaves the tenant clean for quota accounting.
	if err := target.DeleteSketch(); err != nil {
		t.Fatal(err)
	}
}

// TestSoakSnapshotsDisabled: against a daemon without a data directory,
// snapshot ops surface as counted errors (never hidden, never a run
// failure).
func TestSoakSnapshotsDisabled(t *testing.T) {
	srv, err := server.New(server.Config{
		Tenants: []middleware.TenantConfig{{Name: "soak", Token: "soak-token"}},
		Logf:    func(string, ...any) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	spec := loadSpec{
		Seed: 5, Ops: 60, Clients: 3, Bits: 16, Batch: 16,
		IngestWeight: 50, SnapshotWeight: 50,
	}
	target := newHTTPTarget(ts.URL, "soak-token", "nosnap", ts.Client(), retryPolicy{})
	if err := target.CreateSketch(spec.Bits, "", 1, 1); err != nil {
		t.Fatal(err)
	}
	counts, err := runLoad(spec, target)
	if err != nil {
		t.Fatal(err)
	}
	if counts.ops[opSnapshot] == 0 {
		t.Fatal("no snapshot ops ran")
	}
	if n, errs := counts.ops[opSnapshot], counts.errs[opSnapshot]; errs != n {
		t.Fatalf("snapshots_disabled: %d/%d snapshot ops errored, want all", errs, n)
	}
	if counts.ops[opIngest] == 0 || counts.errs[opIngest] != 0 {
		t.Fatalf("ingest should stay clean: %+v", counts)
	}
}

// errLoggingTarget surfaces each op error verbatim, so a chaos-soak
// failure names the fault that leaked through the retries instead of
// just counting it.
type errLoggingTarget struct {
	t     *testing.T
	inner loadTarget
}

func (lt *errLoggingTarget) Ingest(batch []uint64) error {
	err := lt.inner.Ingest(batch)
	if err != nil {
		lt.t.Logf("ingest error: %v", err)
	}
	return err
}

func (lt *errLoggingTarget) Estimate() (float64, error) {
	est, err := lt.inner.Estimate()
	if err != nil {
		lt.t.Logf("estimate error: %v", err)
	}
	return est, err
}

func (lt *errLoggingTarget) Snapshot() error {
	err := lt.inner.Snapshot()
	if err != nil {
		lt.t.Logf("snapshot error: %v", err)
	}
	return err
}

// TestChaosSoakDeterminism is ARCHITECTURE.md invariant 9's enforcement
// test: the same seeded workload as the clean soak runs through a
// fault-injected transport (latency spikes, connection resets before and
// after send, truncated and corrupted response bodies) against a daemon
// whose snapshot disk throws seeded transient failures — and with
// retries enabled the run must finish with zero surfaced errors and a
// final estimate bit-identical to a fault-free in-process sketch over
// the same element stream. Duplicate deliveries from reset-after-send
// retries are absorbed by set semantics; truncated/corrupted bodies are
// re-fetched; disk faults surface as retryable 503s.
func TestChaosSoakDeterminism(t *testing.T) {
	// Transient disk faults: snapshot ops exercise the retry path
	// server-side. The rate is per hook call and one snapshot makes ~7
	// (mkdir + two atomic write sequences), so 5% per call is ~30% per
	// snapshot attempt. BreakerFailures is set far above anything this
	// run can reach so the breaker never opens and every fault stays
	// retryable — breaker behaviour has its own tests (state, server e2e).
	diskChaos := newChaos(chaosConfig{Seed: 1101, Disk: 0.05})
	srv, err := server.New(server.Config{
		Tenants:         []middleware.TenantConfig{{Name: "soak", Token: "soak-token"}},
		DataDir:         t.TempDir(),
		Logf:            func(string, ...any) {},
		DiskHook:        diskChaos.diskHook(),
		BreakerFailures: 1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Client-side transport chaos: ~18% of round trips disturbed.
	httpChaos := newChaos(chaosConfig{
		Seed:       707,
		Latency:    0.04,
		MaxLatency: 500 * time.Microsecond,
		Reset:      0.06,
		Truncate:   0.04,
		Corrupt:    0.04,
	})
	client := &http.Client{Transport: httpChaos.roundTripper(ts.Client().Transport)}

	spec := soakSpec()
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}

	const sketchSeed = 4242
	// Max 16: a snapshot attempt fails ~45% of the time under the
	// combined disk + transport chaos, so a double-digit budget keeps
	// retry exhaustion below ~1e-6 per run.
	target := newHTTPTarget(ts.URL, "soak-token", "chaos", client, retryPolicy{
		Max: 16, Base: 200 * time.Microsecond, Cap: 2 * time.Millisecond, Seed: 99,
	})
	if err := target.CreateSketch(spec.Bits, "minimum", sketchSeed, 3); err != nil {
		t.Fatal(err)
	}

	logged := &errLoggingTarget{t: t, inner: target}
	counts, err := runLoad(spec, logged)
	if err != nil {
		t.Fatal(err)
	}
	if ops, errs := counts.total(); ops != uint64(spec.Ops) {
		t.Fatalf("ran %d ops, want %d", ops, spec.Ops)
	} else if errs != 0 {
		t.Fatalf("%d errors surfaced despite retries: %+v", errs, counts)
	}

	// The chaos must actually have fired, and the retries absorbed it.
	if httpChaos.injectedTotal() == 0 {
		t.Fatal("transport chaos injected nothing; the soak validated an empty hypothesis")
	}
	if target.Retries() == 0 {
		t.Fatal("no retries issued under ~18% transport fault rate")
	}
	t.Logf("injected %v transport faults (%d disk), %d retries",
		httpChaos.injected(), diskChaos.injectedTotal(), target.Retries())

	// Invariant 9: the estimate after the fault-injected run is
	// bit-identical to a fault-free serial sketch over the same stream.
	got, err := logged.Estimate()
	if err != nil {
		t.Fatal(err)
	}
	if want := serialEstimate(t, spec, sketchSeed); got != want {
		t.Fatalf("estimate after chaos %v != fault-free estimate %v (invariant 9 broken)", got, want)
	}

	// 5xx attribution: every server-side 5xx must be an injected disk
	// fault on the snapshot route — any other 5xx is a real server bug
	// the chaos uncovered.
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	re := regexp.MustCompile(`^f0d_http_requests_total\{code="(5\d\d)",route="([^"]+)"\} (\d+)`)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		m := re.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		if !strings.Contains(m[2], "/snapshot") {
			t.Errorf("non-injected 5xx: %s", sc.Text())
			continue
		}
		n, _ := strconv.Atoi(m[3])
		if uint64(n) > diskChaos.injectedTotal() {
			t.Errorf("%d snapshot 5xx responses exceed %d injected disk faults: %s",
				n, diskChaos.injectedTotal(), sc.Text())
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
}
