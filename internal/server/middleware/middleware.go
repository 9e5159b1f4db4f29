// Package middleware carries f0d's HTTP cross-cutting concerns: bearer
// token authentication resolving tokens to tenants, per-tenant
// token-bucket rate limiting, and the per-route observation wrapper
// (request counting by status code, panic-to-500 recovery).
//
// Tokens are looked up by SHA-256 digest, so the map lookup never
// compares secret bytes against attacker-controlled input byte-by-byte.
// Rejections use the same JSON error envelope as the handlers:
// {"error":{"code":...,"message":...}}.
package middleware

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mcf0/internal/server/metrics"
)

// TenantConfig describes one tenant's credentials and limits.
type TenantConfig struct {
	// Name identifies the tenant; it scopes sketch names, quota
	// accounting, and metric labels.
	Name string
	// Token is the bearer token (non-empty).
	Token string
	// MaxSketches bounds the tenant's live sketches (0 = unlimited).
	MaxSketches int
	// RatePerSec and Burst parameterise the tenant's request token
	// bucket (RatePerSec 0 = unlimited; Burst defaults to
	// max(1, ⌈RatePerSec⌉)).
	RatePerSec float64
	Burst      int
}

// Tenant is the resolved identity attached to authenticated requests.
type Tenant struct {
	Name        string
	MaxSketches int

	mu     sync.Mutex
	rate   float64
	burst  float64
	tokens float64
	last   time.Time
}

// allow takes one token from the bucket if available; when it refuses,
// retryAfter is how long until the bucket next holds a whole token (the
// 429 Retry-After hint).
func (t *Tenant) allow(now time.Time) (ok bool, retryAfter time.Duration) {
	if t.rate <= 0 {
		return true, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.last.IsZero() {
		t.tokens += now.Sub(t.last).Seconds() * t.rate
		if t.tokens > t.burst {
			t.tokens = t.burst
		}
	}
	t.last = now
	if t.tokens < 1 {
		return false, time.Duration((1 - t.tokens) / t.rate * float64(time.Second))
	}
	t.tokens--
	return true, 0
}

type ctxKey struct{}

// TenantFrom returns the tenant the Auth middleware attached to the
// request context (nil on unauthenticated routes).
func TenantFrom(ctx context.Context) *Tenant {
	t, _ := ctx.Value(ctxKey{}).(*Tenant)
	return t
}

// Auth authenticates requests by bearer token and applies the resolved
// tenant's rate limit.
type Auth struct {
	byToken map[[sha256.Size]byte]*Tenant
	met     *metrics.Metrics
	now     func() time.Time
}

// NewAuth builds the authenticator. now is the rate limiter's clock
// (nil = time.Now; tests inject a fake).
func NewAuth(tenants []TenantConfig, met *metrics.Metrics, now func() time.Time) (*Auth, error) {
	if now == nil {
		now = time.Now
	}
	a := &Auth{byToken: make(map[[sha256.Size]byte]*Tenant, len(tenants)), met: met, now: now}
	seen := make(map[string]bool, len(tenants))
	for _, tc := range tenants {
		if tc.Name == "" || tc.Token == "" {
			return nil, fmt.Errorf("middleware: tenant needs a name and a non-empty token")
		}
		if seen[tc.Name] {
			return nil, fmt.Errorf("middleware: duplicate tenant %q", tc.Name)
		}
		seen[tc.Name] = true
		key := sha256.Sum256([]byte(tc.Token))
		if _, dup := a.byToken[key]; dup {
			return nil, fmt.Errorf("middleware: duplicate token (tenant %q)", tc.Name)
		}
		burst := float64(tc.Burst)
		if tc.RatePerSec > 0 && burst < 1 {
			burst = tc.RatePerSec
			if burst < 1 {
				burst = 1
			}
		}
		a.byToken[key] = &Tenant{
			Name:        tc.Name,
			MaxSketches: tc.MaxSketches,
			rate:        tc.RatePerSec,
			burst:       burst,
			tokens:      burst,
		}
	}
	return a, nil
}

// Wrap enforces authentication (401) and the tenant's rate limit (429)
// before next runs with the tenant in the request context.
func (a *Auth) Wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		token, ok := bearerToken(r)
		if !ok {
			a.met.Add("f0d_auth_failures_total", 1)
			w.Header().Set("WWW-Authenticate", `Bearer realm="f0d"`)
			WriteError(w, http.StatusUnauthorized, "unauthorized", "missing or malformed Authorization: Bearer header")
			return
		}
		tenant, ok := a.byToken[sha256.Sum256([]byte(token))]
		if !ok {
			a.met.Add("f0d_auth_failures_total", 1)
			w.Header().Set("WWW-Authenticate", `Bearer realm="f0d"`)
			WriteError(w, http.StatusUnauthorized, "unauthorized", "unknown bearer token")
			return
		}
		if ok, retryAfter := tenant.allow(a.now()); !ok {
			a.met.AddLabeled("f0d_rate_limited_total", metrics.Label("tenant", tenant.Name), 1)
			w.Header().Set("Retry-After", retryAfterSeconds(retryAfter))
			WriteError(w, http.StatusTooManyRequests, "rate_limited", "tenant request rate exceeded; retry later")
			return
		}
		next.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), ctxKey{}, tenant)))
	})
}

// retryAfterSeconds renders a duration as a Retry-After header value:
// whole seconds, rounded up, at least 1.
func retryAfterSeconds(d time.Duration) string {
	secs := int64((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.FormatInt(secs, 10)
}

// Shed is the bounded in-flight gate: at most limit requests run at
// once, and excess load is refused immediately with 503 + Retry-After
// instead of queueing until timeouts tear everything down. Health and
// metrics routes are wired outside the gate so operators can always
// observe a saturated daemon.
type Shed struct {
	limit    int64
	inflight atomic.Int64
	met      *metrics.Metrics
}

// NewShed builds the gate; limit ≤ 0 disables shedding (nil Shed also
// works as a no-op wrapper).
func NewShed(limit int, met *metrics.Metrics) *Shed {
	return &Shed{limit: int64(limit), met: met}
}

// Wrap applies the gate to next.
func (s *Shed) Wrap(next http.Handler) http.Handler {
	if s == nil || s.limit <= 0 {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if s.inflight.Add(1) > s.limit {
			s.inflight.Add(-1)
			s.met.Add("f0d_shed_total", 1)
			w.Header().Set("Retry-After", "1")
			WriteError(w, http.StatusServiceUnavailable, "overloaded", "server at capacity; retry later")
			return
		}
		defer s.inflight.Add(-1)
		next.ServeHTTP(w, r)
	})
}

// InFlight returns the current number of admitted requests.
func (s *Shed) InFlight() int64 {
	if s == nil {
		return 0
	}
	return s.inflight.Load()
}

// Deadline attaches a per-request timeout to the request context. It
// bounds no work yet: the only read of a request's context downstream is
// TenantFrom's tenant lookup, and no counting, sketch or snapshot call
// takes a context, so a request runs to completion past its deadline
// until the context is carried into the library (ROADMAP item 17).
// d ≤ 0 disables the wrapper.
func Deadline(d time.Duration, next http.Handler) http.Handler {
	if d <= 0 {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), d)
		defer cancel()
		next.ServeHTTP(w, r.WithContext(ctx))
	})
}

func bearerToken(r *http.Request) (string, bool) {
	h := r.Header.Get("Authorization")
	const prefix = "Bearer "
	if len(h) <= len(prefix) || !strings.EqualFold(h[:len(prefix)], prefix) {
		return "", false
	}
	return h[len(prefix):], true
}

// Observe wraps a route's handler with request counting (by final status
// code) and panic recovery: a panicking handler yields a JSON 500, never
// a torn connection, and the panic is counted against the route.
func Observe(route string, met *metrics.Metrics, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w}
		defer func() {
			if p := recover(); p != nil {
				if !sw.wrote {
					WriteError(sw, http.StatusInternalServerError, "internal", fmt.Sprintf("internal error: %v", p))
				}
			}
			met.IncRequest(route, sw.status())
		}()
		next.ServeHTTP(sw, r)
	})
}

type statusWriter struct {
	http.ResponseWriter
	code  int
	wrote bool
}

func (w *statusWriter) WriteHeader(code int) {
	if !w.wrote {
		w.code, w.wrote = code, true
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if !w.wrote {
		w.code, w.wrote = http.StatusOK, true
	}
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) status() int {
	if !w.wrote {
		return http.StatusOK
	}
	return w.code
}

// WriteError emits the canonical error envelope
// {"error":{"code":...,"message":...}} with the given status; the
// middleware and every handler write their errors through it.
func WriteError(w http.ResponseWriter, status int, code, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]any{
		"error": map[string]string{"code": code, "message": msg},
	})
}
