// Package server assembles the f0d daemon from its parts — the sketch
// registry (state), the HTTP endpoints (handlers), bearer-token auth and
// per-tenant rate limiting (middleware), and the Prometheus registry
// (metrics) — behind one declarative route table.
//
// Lifecycle: New restores every persisted sketch from the data directory
// (crash recovery through the versioned wire codec), ListenAndServe runs
// until the context is cancelled, then drains in-flight requests and
// snapshots every dirty sketch so no acknowledged write is older than
// one snapshot on a clean shutdown. The route table (Routes) is data,
// not wiring: the docs cross-check test walks it to fail CI when an
// endpoint ships undocumented in docs/API.md.
package server

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"time"

	"mcf0/internal/server/handlers"
	"mcf0/internal/server/metrics"
	"mcf0/internal/server/middleware"
	"mcf0/internal/server/state"
)

// Config parameterises a daemon instance.
type Config struct {
	// Tenants are the accepted identities; the daemon refuses to start
	// with none (there is deliberately no unauthenticated mode).
	Tenants []middleware.TenantConfig
	// DataDir is the snapshot directory; "" disables persistence
	// (snapshot requests then answer 409, shutdown skips snapshotting).
	DataDir string
	// MaxBatch bounds elements per ingest request (0 = 65536).
	MaxBatch int
	// MaxBodyBytes bounds request bodies (0 = 8 MiB).
	MaxBodyBytes int64
	// Now is the rate limiter's and breaker's clock (nil = time.Now;
	// tests inject).
	Now func() time.Time
	// Logf receives operational log lines (nil = log.Printf).
	Logf func(format string, args ...any)

	// ReadHeaderTimeout, ReadTimeout, WriteTimeout, and IdleTimeout
	// harden the http.Server against slow-loris clients and dead
	// connections (0 = the defaults 5s/60s/60s/120s; < 0 = disabled).
	ReadHeaderTimeout time.Duration
	ReadTimeout       time.Duration
	WriteTimeout      time.Duration
	IdleTimeout       time.Duration
	// MaxHeaderBytes bounds request headers (0 = 1 MiB).
	MaxHeaderBytes int
	// RequestTimeout is the per-request context deadline propagated to
	// every authenticated handler (0 = disabled).
	RequestTimeout time.Duration
	// MaxInFlight bounds concurrently executing authenticated requests;
	// excess load is shed with 503 + Retry-After (0 = unlimited).
	// /healthz and /metrics are exempt, so a saturated daemon stays
	// observable.
	MaxInFlight int
	// DrainTimeout bounds the graceful drain of in-flight requests on
	// shutdown (0 = 10s).
	DrainTimeout time.Duration

	// BreakerFailures is how many consecutive snapshot disk failures
	// open the circuit breaker (0 = 3); BreakerCooldown is the open →
	// half-open probe delay (0 = 10s).
	BreakerFailures int
	BreakerCooldown time.Duration
	// DiskHook, when non-nil, intercepts every snapshot disk operation —
	// the fault-injection seam the chaos tests drive.
	DiskHook state.DiskHook
}

// Default timeout values applied when the corresponding Config field is
// zero.
const (
	DefaultReadHeaderTimeout = 5 * time.Second
	DefaultReadTimeout       = 60 * time.Second
	DefaultWriteTimeout      = 60 * time.Second
	DefaultIdleTimeout       = 120 * time.Second
	DefaultMaxHeaderBytes    = 1 << 20
	DefaultDrainTimeout      = 10 * time.Second
)

func defDur(v, def time.Duration) time.Duration {
	switch {
	case v < 0:
		return 0
	case v == 0:
		return def
	}
	return v
}

// Server is one assembled daemon.
type Server struct {
	cfg      Config
	logf     func(string, ...any)
	registry *state.Registry
	metrics  *metrics.Metrics
	api      *handlers.API
	auth     *middleware.Auth
	shed     *middleware.Shed
	handler  http.Handler
	restored int
}

// Route is one entry of the declarative route table.
type Route struct {
	// Method and Pattern form the net/http ServeMux pattern
	// ("POST /v1/sketches/{name}/add").
	Method  string
	Pattern string
	// Doc is a one-line summary (surfaced by the docs cross-check).
	Doc string
	// Auth marks routes behind the bearer-token middleware.
	Auth bool

	handler http.HandlerFunc
}

// New assembles a server and restores persisted sketches from
// cfg.DataDir (refusing to start over corrupt snapshots).
func New(cfg Config) (*Server, error) {
	if len(cfg.Tenants) == 0 {
		return nil, fmt.Errorf("server: refusing to start without tenants (no unauthenticated mode)")
	}
	for _, t := range cfg.Tenants {
		if !state.ValidName(t.Name) {
			return nil, fmt.Errorf("server: invalid tenant name %q", t.Name)
		}
	}
	logf := cfg.Logf
	if logf == nil {
		logf = log.Printf
	}
	met := metrics.New()
	auth, err := middleware.NewAuth(cfg.Tenants, met, cfg.Now)
	if err != nil {
		return nil, err
	}
	reg := state.NewRegistry(cfg.DataDir)
	if cfg.DiskHook != nil {
		reg.SetDiskHook(cfg.DiskHook)
	}
	breaker := state.NewBreaker(cfg.BreakerFailures, cfg.BreakerCooldown, cfg.Now)
	reg.SetBreaker(breaker)
	restored, err := reg.Load()
	if err != nil {
		return nil, fmt.Errorf("server: restore-on-boot: %w", err)
	}
	byTenant := func(src func() map[string]int) func() map[string]float64 {
		return func() map[string]float64 {
			out := make(map[string]float64)
			for tenant, v := range src() {
				out[metrics.Label("tenant", tenant)] = float64(v)
			}
			return out
		}
	}
	met.RegisterGauge("f0d_sketches", byTenant(reg.CountByTenant))
	met.RegisterGauge("f0d_sketches_failed", byTenant(reg.FailedByTenant))
	met.RegisterGauge("f0d_sketch_words", byTenant(reg.WordsByTenant))
	met.RegisterGauge("f0d_snapshot_breaker_state", func() map[string]float64 {
		return map[string]float64{"": float64(breaker.State())}
	})
	met.RegisterGauge("f0d_snapshot_breaker_opens", func() map[string]float64 {
		return map[string]float64{"": float64(breaker.Opens())}
	})
	shed := middleware.NewShed(cfg.MaxInFlight, met)
	met.RegisterGauge("f0d_inflight_requests", func() map[string]float64 {
		return map[string]float64{"": float64(shed.InFlight())}
	})
	s := &Server{
		cfg:      cfg,
		logf:     logf,
		registry: reg,
		metrics:  met,
		api:      &handlers.API{Registry: reg, Metrics: met, MaxBatch: cfg.MaxBatch, MaxBodyBytes: cfg.MaxBodyBytes},
		auth:     auth,
		shed:     shed,
		restored: restored,
	}
	mux := http.NewServeMux()
	for _, rt := range s.Routes() {
		h := http.Handler(rt.handler)
		if rt.Auth {
			// Inside-out: auth → deadline → shed, so the shed gate and
			// request deadline also cover token verification, while
			// /healthz and /metrics stay outside both — a saturated or
			// degraded daemon must remain observable.
			h = s.auth.Wrap(h)
			h = middleware.Deadline(cfg.RequestTimeout, h)
			h = shed.Wrap(h)
		}
		h = middleware.Observe(rt.Method+" "+rt.Pattern, met, h)
		mux.Handle(rt.Method+" "+rt.Pattern, h)
	}
	s.handler = mux
	return s, nil
}

// Routes returns the daemon's full route table. Every entry here must be
// documented in docs/API.md — the cross-check test fails CI otherwise.
func (s *Server) Routes() []Route {
	return []Route{
		{Method: "GET", Pattern: "/healthz", Doc: "liveness probe", handler: s.api.Healthz},
		{Method: "GET", Pattern: "/metrics", Doc: "Prometheus metrics exposition", handler: s.metrics.ServeHTTP},
		{Method: "POST", Pattern: "/v1/sketches", Doc: "create a named sketch", Auth: true, handler: s.api.Create},
		{Method: "GET", Pattern: "/v1/sketches", Doc: "list the tenant's sketches", Auth: true, handler: s.api.List},
		{Method: "GET", Pattern: "/v1/sketches/{name}", Doc: "inspect one sketch", Auth: true, handler: s.api.Get},
		{Method: "DELETE", Pattern: "/v1/sketches/{name}", Doc: "delete a sketch and its snapshots", Auth: true, handler: s.api.Delete},
		{Method: "POST", Pattern: "/v1/sketches/{name}/add", Doc: "batched element ingest", Auth: true, handler: s.api.Add},
		{Method: "GET", Pattern: "/v1/sketches/{name}/estimate", Doc: "query the distinct-count estimate", Auth: true, handler: s.api.Estimate},
		{Method: "POST", Pattern: "/v1/sketches/{name}/snapshot", Doc: "persist a crash-recovery snapshot", Auth: true, handler: s.api.Snapshot},
		{Method: "POST", Pattern: "/v1/count", Doc: "one-shot approximate model count", Auth: true, handler: s.api.Count},
	}
}

// Handler returns the fully wired HTTP handler (auth, rate limiting,
// metrics, and panic recovery included) — what tests mount on httptest
// servers and ListenAndServe serves.
func (s *Server) Handler() http.Handler { return s.handler }

// Shutdown snapshots every dirty sketch to the data directory; it is the
// graceful-shutdown tail and safe to call on a server that never
// listened. Without a data directory it is a no-op.
func (s *Server) Shutdown() error {
	n, err := s.registry.SnapshotDirty()
	if n > 0 || err != nil {
		s.logf("f0d: shutdown snapshot: %d sketch(es) persisted, err=%v", n, err)
	}
	return err
}

// ListenAndServe serves on addr until ctx is cancelled, then drains
// in-flight requests (grace period) and runs Shutdown. The returned
// error is nil on a clean shutdown.
func (s *Server) ListenAndServe(ctx context.Context, addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ctx, ln)
}

// Serve is ListenAndServe over an existing listener (tests and the CLI
// use it to learn the bound port before serving).
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	srv := &http.Server{
		Handler:           s.handler,
		ReadHeaderTimeout: defDur(s.cfg.ReadHeaderTimeout, DefaultReadHeaderTimeout),
		ReadTimeout:       defDur(s.cfg.ReadTimeout, DefaultReadTimeout),
		WriteTimeout:      defDur(s.cfg.WriteTimeout, DefaultWriteTimeout),
		IdleTimeout:       defDur(s.cfg.IdleTimeout, DefaultIdleTimeout),
		MaxHeaderBytes:    s.cfg.MaxHeaderBytes,
	}
	if srv.MaxHeaderBytes == 0 {
		srv.MaxHeaderBytes = DefaultMaxHeaderBytes
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	s.logf("f0d: serving on %s (%d sketch(es) restored)", ln.Addr(), s.restored)
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	drainCtx, cancel := context.WithTimeout(context.Background(), defDur(s.cfg.DrainTimeout, DefaultDrainTimeout))
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		s.Shutdown()
		return err
	}
	return s.Shutdown()
}
