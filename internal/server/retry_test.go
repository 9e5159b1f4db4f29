package server_test

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

func TestBackoffDeterministicAndBounded(t *testing.T) {
	p := retryPolicy{Max: 8, Base: 10 * time.Millisecond, Cap: 80 * time.Millisecond, Seed: 7}
	q := retryPolicy{Max: 8, Base: 10 * time.Millisecond, Cap: 80 * time.Millisecond, Seed: 7}
	for attempt := 0; attempt < 8; attempt++ {
		for idx := uint64(0); idx < 50; idx++ {
			d1 := p.backoff(attempt, idx, 0)
			d2 := q.backoff(attempt, idx, 0)
			if d1 != d2 {
				t.Fatalf("backoff(%d, %d) differs across identical policies: %v vs %v", attempt, idx, d1, d2)
			}
			ceil := 10 * time.Millisecond << attempt
			if ceil > 80*time.Millisecond {
				ceil = 80 * time.Millisecond
			}
			if d1 < 0 || d1 > ceil {
				t.Fatalf("backoff(%d, %d) = %v outside [0, %v]", attempt, idx, d1, ceil)
			}
		}
	}
	// A different seed draws a different schedule.
	r := retryPolicy{Max: 8, Base: 10 * time.Millisecond, Cap: 80 * time.Millisecond, Seed: 8}
	same := 0
	for idx := uint64(0); idx < 50; idx++ {
		if p.backoff(3, idx, 0) == r.backoff(3, idx, 0) {
			same++
		}
	}
	if same == 50 {
		t.Fatal("seeds 7 and 8 draw identical jitter schedules")
	}
}

func TestBackoffHonorsRetryAfter(t *testing.T) {
	p := retryPolicy{Base: time.Millisecond, Cap: 2 * time.Second, Seed: 1}
	if d := p.backoff(0, 0, time.Second); d != time.Second {
		t.Fatalf("backoff with Retry-After 1s = %v, want the 1s floor", d)
	}
	// A hostile Retry-After is capped.
	if d := p.backoff(0, 0, time.Hour); d != 2*time.Second {
		t.Fatalf("backoff with Retry-After 1h = %v, want the 2s cap", d)
	}
}

func TestParseRetryAfter(t *testing.T) {
	h := http.Header{}
	if d := parseRetryAfter(h); d != 0 {
		t.Fatalf("absent header: %v, want 0", d)
	}
	h.Set("Retry-After", "3")
	if d := parseRetryAfter(h); d != 3*time.Second {
		t.Fatalf("Retry-After 3: %v, want 3s", d)
	}
	h.Set("Retry-After", "Wed, 21 Oct 2015 07:28:00 GMT")
	if d := parseRetryAfter(h); d != 0 {
		t.Fatalf("HTTP-date Retry-After: %v, want 0 (unsupported form ignored)", d)
	}
}

// newRetryTarget points an httpTarget with an instant-sleep retry policy
// at a test server.
func newRetryTarget(ts *httptest.Server, max int) (*httpTarget, *atomic.Int64) {
	var slept atomic.Int64
	target := newHTTPTarget(ts.URL, "", "s", ts.Client(),
		retryPolicy{Max: max, Seed: 3, Sleep: func(time.Duration) { slept.Add(1) }})
	return target, &slept
}

func TestDoRetriesTransientStatus(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) <= 2 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprint(w, `{"error":{"code":"overloaded","message":"shed"}}`)
			return
		}
		fmt.Fprint(w, `{"estimate": 12.5}`)
	}))
	defer ts.Close()
	target, slept := newRetryTarget(ts, 5)
	est, err := target.Estimate()
	if err != nil || est != 12.5 {
		t.Fatalf("Estimate = (%v, %v), want (12.5, nil)", est, err)
	}
	if hits.Load() != 3 {
		t.Fatalf("server saw %d attempts, want 3", hits.Load())
	}
	if slept.Load() != 2 || target.Retries() != 2 {
		t.Fatalf("slept %d times / %d retries, want 2/2", slept.Load(), target.Retries())
	}
}

func TestDoRetriesDecodeError(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) == 1 {
			fmt.Fprint(w, `{"estimate": 12.`) // truncated body, status 200
			return
		}
		fmt.Fprint(w, `{"estimate": 12.5}`)
	}))
	defer ts.Close()
	target, _ := newRetryTarget(ts, 5)
	est, err := target.Estimate()
	if err != nil || est != 12.5 {
		t.Fatalf("Estimate = (%v, %v), want (12.5, nil)", est, err)
	}
	if hits.Load() != 2 {
		t.Fatalf("server saw %d attempts, want 2 (truncated body must be refetched)", hits.Load())
	}
}

func TestDoNeverRetriesClientErrors(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.WriteHeader(http.StatusNotFound)
		fmt.Fprint(w, `{"error":{"code":"not_found","message":"no such sketch"}}`)
	}))
	defer ts.Close()
	target, _ := newRetryTarget(ts, 5)
	if _, err := target.Estimate(); err == nil {
		t.Fatal("404 did not surface as an error")
	}
	if hits.Load() != 1 {
		t.Fatalf("server saw %d attempts for a 404, want 1 (4xx is never retryable)", hits.Load())
	}
}

func TestDoExhaustsBudget(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.WriteHeader(http.StatusInternalServerError)
	}))
	defer ts.Close()
	target, _ := newRetryTarget(ts, 3)
	if _, err := target.Estimate(); err == nil {
		t.Fatal("persistent 500 did not surface after the budget")
	}
	if hits.Load() != 4 {
		t.Fatalf("server saw %d attempts, want 4 (1 + 3 retries)", hits.Load())
	}
}

func TestZeroPolicyIsSingleShot(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer ts.Close()
	target := newHTTPTarget(ts.URL, "", "s", ts.Client(), retryPolicy{})
	if _, err := target.Estimate(); err == nil {
		t.Fatal("503 did not surface")
	}
	if hits.Load() != 1 {
		t.Fatalf("zero-value policy issued %d attempts, want 1", hits.Load())
	}
}
