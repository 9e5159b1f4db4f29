package server_test

import (
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestDecisionKernelPure: u64At and fracAt are pure functions of
// (seed, index), the determinism the chaos fixture rests on.
func TestDecisionKernelPure(t *testing.T) {
	for _, seed := range []uint64{0, 1, 42, ^uint64(0)} {
		for i := uint64(0); i < 100; i++ {
			if u64At(seed, i) != u64At(seed, i) {
				t.Fatalf("u64At(%d,%d) not stable", seed, i)
			}
			f := fracAt(seed, i)
			if f < 0 || f >= 1 {
				t.Fatalf("fracAt(%d,%d) = %v outside [0,1)", seed, i, f)
			}
		}
	}
	// Different seeds must diverge somewhere early.
	same := 0
	for i := uint64(0); i < 64; i++ {
		if u64At(1, i) == u64At(2, i) {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("seeds 1 and 2 collide on %d/64 draws", same)
	}
}

// TestFaultSequenceDeterministic: two same-seed policies draw identical
// decision sequences on every stream.
func TestFaultSequenceDeterministic(t *testing.T) {
	cfg := chaosConfig{Seed: 99, Latency: 0.2, Reset: 0.2, Truncate: 0.2, Corrupt: 0.2, Disk: 0.3}
	a, b := newChaos(cfg), newChaos(cfg)
	for i := 0; i < 500; i++ {
		da, db := a.httpDecision(), b.httpDecision()
		if da != db {
			t.Fatalf("http decision %d: %v != %v", i, da, db)
		}
		if ka, kb := a.diskDecision(), b.diskDecision(); ka != kb {
			t.Fatalf("disk decision %d: %v != %v", i, ka, kb)
		}
	}
	// Decisions alone count no injections.
	for _, k := range []faultKind{faultLatency, faultReset, faultTruncate, faultCorrupt, faultDisk} {
		if a.counts[k].Load() != 0 {
			t.Fatalf("decisions alone must not count injections (kind %v)", k)
		}
	}
}

func chaosClient(ts *httptest.Server, cfg chaosConfig) (*chaosPolicy, *http.Client) {
	c := newChaos(cfg)
	return c, &http.Client{Transport: c.roundTripper(ts.Client().Transport)}
}

const echoBody = `{"answer":"0123456789abcdef0123456789abcdef"}`

func newEchoServer(t *testing.T) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, echoBody)
	}))
	t.Cleanup(ts.Close)
	return ts
}

func TestRoundTripperTruncate(t *testing.T) {
	ts := newEchoServer(t)
	c, client := chaosClient(ts, chaosConfig{Seed: 1, Truncate: 1})
	resp, err := client.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if len(body) != len(echoBody)/2 {
		t.Fatalf("truncated body is %d bytes, want %d", len(body), len(echoBody)/2)
	}
	if got := c.injected()["truncate"]; got != 1 {
		t.Fatalf("truncate count = %d, want 1", got)
	}
}

func TestRoundTripperCorrupt(t *testing.T) {
	ts := newEchoServer(t)
	c, client := chaosClient(ts, chaosConfig{Seed: 1, Corrupt: 1})
	resp, err := client.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for i := 0; i < 8; i++ {
		if body[i] != 0xFF {
			t.Fatalf("byte %d = %#x, want 0xFF (corrupted prefix)", i, body[i])
		}
	}
	if got := c.injected()["corrupt"]; got != 1 {
		t.Fatalf("corrupt count = %d, want 1", got)
	}
}

func TestRoundTripperReset(t *testing.T) {
	ts := newEchoServer(t)
	c, client := chaosClient(ts, chaosConfig{Seed: 1, Reset: 1})
	for i := 0; i < 8; i++ {
		_, err := client.Get(ts.URL)
		if err == nil {
			t.Fatalf("request %d: injected reset did not surface an error", i)
		}
		if !errors.Is(err, errInjected) && !strings.Contains(err.Error(), "injected") {
			t.Fatalf("request %d: error %v is not marked injected", i, err)
		}
	}
	if got := c.injected()["reset"]; got != 8 {
		t.Fatalf("reset count = %d, want 8", got)
	}
}

func TestRoundTripperLatency(t *testing.T) {
	ts := newEchoServer(t)
	c, client := chaosClient(ts, chaosConfig{Seed: 1, Latency: 1, MaxLatency: time.Millisecond})
	resp, err := client.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := c.injected()["latency"]; got != 1 {
		t.Fatalf("latency count = %d, want 1", got)
	}
}

func TestDiskHookTransientAndPermanent(t *testing.T) {
	c := newChaos(chaosConfig{Seed: 5, Disk: 1})
	hook := c.diskHook()
	if err := hook("/x/y.snap", "write"); !errors.Is(err, errInjected) {
		t.Fatalf("disk=1 hook returned %v, want errInjected", err)
	}

	c2 := newChaos(chaosConfig{Seed: 5}) // zero transient rate
	hook2 := c2.diskHook()
	if err := hook2("/x/y.snap", "write"); err != nil {
		t.Fatalf("healthy hook failed: %v", err)
	}
	c2.breakDisk()
	for i := 0; i < 3; i++ {
		if err := hook2("/x/y.snap", "rename"); !errors.Is(err, errInjected) {
			t.Fatalf("broken disk pass %d: %v, want errInjected", i, err)
		}
	}
	c2.healDisk()
	if err := hook2("/x/y.snap", "write"); err != nil {
		t.Fatalf("healed hook failed: %v", err)
	}
	if got := c2.injected()["disk"]; got != 3 {
		t.Fatalf("disk count = %d, want 3", got)
	}
}

// TestInjectedTotal: the attribution counters sum across kinds.
func TestInjectedTotal(t *testing.T) {
	c := newChaos(chaosConfig{Seed: 1})
	c.count(faultReset)
	c.count(faultDisk)
	c.count(faultDisk)
	if c.injectedTotal() != 3 {
		t.Fatalf("injectedTotal = %d, want 3", c.injectedTotal())
	}
}
