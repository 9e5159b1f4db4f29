package server_test

import (
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"mcf0/internal/server"
)

// testClock is a mutex-guarded fake clock for the breaker's cooldown.
type testClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *testClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *testClock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

// TestDegradedModeEndToEnd walks the whole resilience story: a permanent
// disk failure opens the snapshot breaker; /healthz and /metrics report
// the degraded daemon; ingest and estimates keep serving; and after the
// disk heals a clean shutdown + restart recovers every acknowledged
// ingest.
func TestDegradedModeEndToEnd(t *testing.T) {
	dir := t.TempDir()
	clk := &testClock{t: time.Unix(1000, 0)}
	chaos := newChaos(chaosConfig{Seed: 42})

	s, ts := newServer(t, server.Config{
		DataDir:         dir,
		Now:             clk.now,
		BreakerFailures: 2,
		BreakerCooldown: time.Hour,
		DiskHook:        chaos.diskHook(),
	})
	base := ts.URL

	status, _ := do(t, "POST", base+"/v1/sketches", testToken,
		map[string]any{"name": "s", "bits": 16, "seed": 7})
	if status != http.StatusCreated && status != http.StatusOK {
		t.Fatalf("create: status %d", status)
	}
	if status, _ := do(t, "POST", base+"/v1/sketches/s/add", testToken,
		map[string]any{"elements": []uint64{1, 2, 3}}); status != http.StatusOK {
		t.Fatalf("add: status %d", status)
	}
	if status, _ := do(t, "POST", base+"/v1/sketches/s/snapshot", testToken, nil); status != http.StatusOK {
		t.Fatalf("healthy snapshot: status %d", status)
	}

	// The disk dies. Acked ingests continue; snapshots start failing.
	chaos.breakDisk()
	if status, _ := do(t, "POST", base+"/v1/sketches/s/add", testToken,
		map[string]any{"elements": []uint64{4, 5}}); status != http.StatusOK {
		t.Fatalf("add on dead disk: status %d (ingest must not depend on the disk)", status)
	}
	for i := 0; i < 2; i++ {
		status, body := do(t, "POST", base+"/v1/sketches/s/snapshot", testToken, nil)
		if status != http.StatusServiceUnavailable || errCode(t, body) != "snapshot_failed" {
			t.Fatalf("snapshot %d on dead disk: status %d code %q, want 503 snapshot_failed",
				i, status, errCode(t, body))
		}
	}

	// Two consecutive failures opened the breaker: now requests fail fast
	// with the breaker's Retry-After, without touching the disk.
	req, _ := http.NewRequest("POST", base+"/v1/sketches/s/snapshot", nil)
	req.Header.Set("Authorization", "Bearer "+testToken)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("open-breaker snapshot: status %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("open-breaker 503 carries no Retry-After")
	}

	// The daemon is degraded, not dead: healthz says so at 200.
	status, body := do(t, "GET", base+"/healthz", "", nil)
	if status != http.StatusOK {
		t.Fatalf("degraded healthz: status %d, want 200 (orchestrators must not kill the replica)", status)
	}
	if body["status"] != "degraded" || body["snapshot_breaker"] != "open" {
		t.Fatalf("degraded healthz body = %v", body)
	}

	// Metrics expose the breaker.
	mresp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	buf := make([]byte, 64<<10)
	for {
		n, rerr := mresp.Body.Read(buf)
		sb.Write(buf[:n])
		if rerr != nil {
			break
		}
	}
	mresp.Body.Close()
	metricsText := sb.String()
	if !strings.Contains(metricsText, "f0d_snapshot_breaker_state 1") {
		t.Fatalf("metrics do not report the open breaker:\n%s", metricsText)
	}
	if !strings.Contains(metricsText, "f0d_snapshot_breaker_opens 1") {
		t.Fatal("metrics do not count the breaker open")
	}

	// Estimates keep flowing in degraded mode.
	status, body = do(t, "GET", base+"/v1/sketches/s/estimate", testToken, nil)
	if status != http.StatusOK {
		t.Fatalf("degraded estimate: status %d", status)
	}
	degradedEstimate := body["estimate"]

	// The disk heals; a clean shutdown persists the dirty sketch even
	// though the breaker never saw the recovery (shutdown bypasses it).
	chaos.healDisk()
	if err := s.Shutdown(); err != nil {
		t.Fatalf("shutdown snapshot after heal: %v", err)
	}

	// Restart over the same data directory: nothing acked was lost.
	s2, ts2 := newServer(t, server.Config{DataDir: dir})
	if s2.Restored() != 1 {
		t.Fatalf("restored %d sketches, want 1", s2.Restored())
	}
	status, body = do(t, "GET", ts2.URL+"/v1/sketches/s/estimate", testToken, nil)
	if status != http.StatusOK {
		t.Fatalf("post-restart estimate: status %d", status)
	}
	if body["estimate"] != degradedEstimate {
		t.Fatalf("post-restart estimate %v != degraded-mode estimate %v (acked ingest lost)",
			body["estimate"], degradedEstimate)
	}
	status, body = do(t, "GET", ts2.URL+"/healthz", "", nil)
	if status != http.StatusOK || body["status"] != "ok" {
		t.Fatalf("post-restart healthz = %d %v, want 200 ok", status, body)
	}

	// Cooldown probes: back on the first server's clock the breaker would
	// have half-opened after the hour — covered by the state package's
	// breaker tests; here the restart already proved recovery.
	clk.advance(2 * time.Hour)
}
