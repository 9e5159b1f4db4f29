package faultinject

import (
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestDecisionKernelPure: U64At and FracAt are pure functions of
// (seed, index) — the determinism the whole framework rests on.
func TestDecisionKernelPure(t *testing.T) {
	for _, seed := range []uint64{0, 1, 42, ^uint64(0)} {
		for i := uint64(0); i < 100; i++ {
			if U64At(seed, i) != U64At(seed, i) {
				t.Fatalf("U64At(%d,%d) not stable", seed, i)
			}
			f := FracAt(seed, i)
			if f < 0 || f >= 1 {
				t.Fatalf("FracAt(%d,%d) = %v outside [0,1)", seed, i, f)
			}
		}
	}
	// Different seeds must diverge somewhere early.
	same := 0
	for i := uint64(0); i < 64; i++ {
		if U64At(1, i) == U64At(2, i) {
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
	cfg := Config{Seed: 99, Latency: 0.2, Reset: 0.2, Truncate: 0.2, Corrupt: 0.2, Disk: 0.3}
	a, b := MustNew(cfg), MustNew(cfg)
	for i := 0; i < 500; i++ {
		da, db := a.httpDecision(), b.httpDecision()
		if da != db {
			t.Fatalf("http decision %d: %v != %v", i, da, db)
		}
		if ka, kb := a.diskDecision(), b.diskDecision(); ka != kb {
			t.Fatalf("disk decision %d: %v != %v", i, ka, kb)
		}
	}
	// All configured kinds must actually occur at these rates within 500
	// draws (this is deterministic: fixed seed, fixed count).
	for _, k := range []Kind{KindLatency, KindReset, KindTruncate, KindCorrupt, KindDisk} {
		if a.counts[k].Load() != 0 {
			t.Fatalf("decisions alone must not count injections (kind %v)", k)
		}
	}
}

func chaosClient(t *testing.T, ts *httptest.Server, cfg Config) (*Chaos, *http.Client) {
	t.Helper()
	c := MustNew(cfg)
	client := &http.Client{Transport: c.RoundTripper(ts.Client().Transport)}
	return c, client
}

func newEchoServer(t *testing.T) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, `{"answer":"0123456789abcdef0123456789abcdef"}`)
	}))
	t.Cleanup(ts.Close)
	return ts
}

func TestRoundTripperTruncate(t *testing.T) {
	ts := newEchoServer(t)
	c, client := chaosClient(t, ts, Config{Seed: 1, Truncate: 1})
	resp, err := client.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	full := len(`{"answer":"0123456789abcdef0123456789abcdef"}`)
	if len(body) != full/2 {
		t.Fatalf("truncated body is %d bytes, want %d", len(body), full/2)
	}
	if got := c.Injected()["truncate"]; got != 1 {
		t.Fatalf("truncate count = %d, want 1", got)
	}
}

func TestRoundTripperCorrupt(t *testing.T) {
	ts := newEchoServer(t)
	c, client := chaosClient(t, ts, Config{Seed: 1, Corrupt: 1})
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
	if got := c.Injected()["corrupt"]; got != 1 {
		t.Fatalf("corrupt count = %d, want 1", got)
	}
}

func TestRoundTripperReset(t *testing.T) {
	ts := newEchoServer(t)
	c, client := chaosClient(t, ts, Config{Seed: 1, Reset: 1})
	for i := 0; i < 8; i++ {
		_, err := client.Get(ts.URL)
		if err == nil {
			t.Fatalf("request %d: injected reset did not surface an error", i)
		}
		if !errors.Is(err, ErrInjected) && !strings.Contains(err.Error(), "injected") {
			t.Fatalf("request %d: error %v is not marked injected", i, err)
		}
	}
	if got := c.Injected()["reset"]; got != 8 {
		t.Fatalf("reset count = %d, want 8", got)
	}
}

func TestRoundTripperLatency(t *testing.T) {
	ts := newEchoServer(t)
	c, client := chaosClient(t, ts, Config{Seed: 1, Latency: 1, MaxLatency: time.Millisecond})
	resp, err := client.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := c.Injected()["latency"]; got != 1 {
		t.Fatalf("latency count = %d, want 1", got)
	}
}

func TestDiskHookTransientAndPermanent(t *testing.T) {
	c := MustNew(Config{Seed: 5, Disk: 1})
	hook := c.DiskHook()
	if err := hook("/x/y.snap", "write"); !errors.Is(err, ErrInjected) {
		t.Fatalf("disk=1 hook returned %v, want ErrInjected", err)
	}

	c2 := MustNew(Config{Seed: 5}) // zero transient rate
	hook2 := c2.DiskHook()
	if err := hook2("/x/y.snap", "write"); err != nil {
		t.Fatalf("healthy hook failed: %v", err)
	}
	c2.BreakDisk()
	for i := 0; i < 3; i++ {
		if err := hook2("/x/y.snap", "rename"); !errors.Is(err, ErrInjected) {
			t.Fatalf("broken disk pass %d: %v, want ErrInjected", i, err)
		}
	}
	c2.HealDisk()
	if err := hook2("/x/y.snap", "write"); err != nil {
		t.Fatalf("healed hook failed: %v", err)
	}
	if got := c2.Injected()["disk"]; got != 3 {
		t.Fatalf("disk count = %d, want 3", got)
	}
}

func TestParseSpec(t *testing.T) {
	cfg, err := ParseSpec("seed=7,latency=0.05,max-latency=2ms,reset=0.06,truncate=0.04,corrupt=0.04,disk=0.1")
	if err != nil {
		t.Fatal(err)
	}
	want := Config{Seed: 7, Latency: 0.05, MaxLatency: 2 * time.Millisecond,
		Reset: 0.06, Truncate: 0.04, Corrupt: 0.04, Disk: 0.1}
	if cfg != want {
		t.Fatalf("ParseSpec = %+v, want %+v", cfg, want)
	}
	for _, bad := range []string{"", "latency", "latency=x", "latency=2", "bogus=1", "seed=-1", "max-latency=5", "conn-reset=0.2"} {
		if _, err := ParseSpec(bad); err == nil {
			t.Fatalf("ParseSpec(%q) accepted", bad)
		}
	}
}

// TestInjectedTotal: the attribution counters sum across kinds.
func TestInjectedTotal(t *testing.T) {
	c := MustNew(Config{Seed: 1})
	c.count(KindReset)
	c.count(KindDisk)
	c.count(KindDisk)
	if c.InjectedTotal() != 3 {
		t.Fatalf("InjectedTotal = %d, want 3", c.InjectedTotal())
	}
}
