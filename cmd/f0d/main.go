// Command f0d is the multi-tenant sketch daemon: named F0 sketches
// served over HTTP/JSON with bearer-token auth, per-tenant quotas and
// rate limits, snapshot/restore crash recovery through the versioned
// wire codec, and a Prometheus-style /metrics endpoint. See docs/API.md
// for the endpoint reference and docs/OPERATIONS.md for the runbook.
//
//	-addr string       listen address (default ":8080")
//	-token string      single-tenant shortcut: "tenant:token"
//	-auth path         auth file, one tenant per line:
//	                     <tenant> <token> [max_sketches] [rate_per_sec] [burst]
//	                   '#' starts a comment; -token and -auth may be combined
//	-data path         snapshot directory; enables POST .../snapshot, the
//	                   shutdown snapshot of dirty sketches, and
//	                   restore-on-boot crash recovery ("" disables all three)
//	-max-batch int     max elements per ingest request (default 65536)
//	-max-body bytes    max request body size (default 8 MiB)
//
// Resilience knobs (all durations accept Go syntax like "30s"; 0 keeps
// the default, negative disables where noted):
//
//	-read-header-timeout   http.Server.ReadHeaderTimeout (default 5s)
//	-read-timeout          http.Server.ReadTimeout (default 60s)
//	-write-timeout         http.Server.WriteTimeout (default 60s)
//	-idle-timeout          http.Server.IdleTimeout (default 120s)
//	-max-header-bytes      request header cap (default 1 MiB)
//	-request-timeout       per-request context deadline (default off);
//	                       attached, but no handler reads it yet
//	-max-inflight          in-flight request cap; excess sheds 503
//	                       (default 0 = unlimited)
//	-drain-timeout         graceful-shutdown drain bound (default 10s)
//	-breaker-failures      consecutive snapshot disk failures that open
//	                       the circuit breaker (default 3)
//	-breaker-cooldown      open → half-open probe delay (default 10s)
//
// The daemon refuses to start without at least one tenant — there is no
// unauthenticated mode. On SIGINT/SIGTERM it drains in-flight requests,
// snapshots every dirty sketch to -data, and exits 0; a subsequent start
// with the same -data restores every sketch bit-identically (determinism
// invariant 6), so estimates after a restart equal those of an
// uninterrupted run (invariant 7).
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"mcf0/internal/server"
	"mcf0/internal/server/middleware"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		token    = flag.String("token", "", `single-tenant shortcut: "tenant:token"`)
		authFile = flag.String("auth", "", "auth file: <tenant> <token> [max_sketches] [rate_per_sec] [burst] per line")
		dataDir  = flag.String("data", "", "snapshot directory (enables snapshot/restore; empty disables)")
		maxBatch = flag.Int("max-batch", 0, "max elements per ingest request (0 = 65536)")
		maxBody  = flag.Int64("max-body", 0, "max request body bytes (0 = 8 MiB)")

		readHeaderTimeout = flag.Duration("read-header-timeout", 0, "HTTP header read timeout (0 = 5s, negative disables)")
		readTimeout       = flag.Duration("read-timeout", 0, "full-request read timeout (0 = 60s, negative disables)")
		writeTimeout      = flag.Duration("write-timeout", 0, "response write timeout (0 = 60s, negative disables)")
		idleTimeout       = flag.Duration("idle-timeout", 0, "keep-alive idle timeout (0 = 120s, negative disables)")
		maxHeaderBytes    = flag.Int("max-header-bytes", 0, "max request header bytes (0 = 1 MiB)")
		requestTimeout    = flag.Duration("request-timeout", 0, "per-request context deadline, attached but not yet read by any handler, so it bounds no work (0 = off)")
		maxInFlight       = flag.Int("max-inflight", 0, "in-flight request cap, excess sheds 503 (0 = unlimited)")
		drainTimeout      = flag.Duration("drain-timeout", 0, "graceful-shutdown drain bound (0 = 10s)")
		breakerFailures   = flag.Int("breaker-failures", 0, "consecutive snapshot disk failures opening the breaker (0 = 3)")
		breakerCooldown   = flag.Duration("breaker-cooldown", 0, "breaker open-to-probe cooldown (0 = 10s)")
	)
	flag.Parse()

	var tenants []middleware.TenantConfig
	if *token != "" {
		name, tok, ok := strings.Cut(*token, ":")
		if !ok || name == "" || tok == "" {
			fatal(fmt.Errorf(`-token wants "tenant:token", got %q`, *token))
		}
		tenants = append(tenants, middleware.TenantConfig{Name: name, Token: tok})
	}
	if *authFile != "" {
		fileTenants, err := loadAuthFile(*authFile)
		if err != nil {
			fatal(err)
		}
		tenants = append(tenants, fileTenants...)
	}
	if len(tenants) == 0 {
		fatal(fmt.Errorf("no tenants configured: pass -token tenant:token or -auth <file> (f0d has no unauthenticated mode)"))
	}

	s, err := server.New(server.Config{
		Tenants:      tenants,
		DataDir:      *dataDir,
		MaxBatch:     *maxBatch,
		MaxBodyBytes: *maxBody,

		ReadHeaderTimeout: *readHeaderTimeout,
		ReadTimeout:       *readTimeout,
		WriteTimeout:      *writeTimeout,
		IdleTimeout:       *idleTimeout,
		MaxHeaderBytes:    *maxHeaderBytes,
		RequestTimeout:    *requestTimeout,
		MaxInFlight:       *maxInFlight,
		DrainTimeout:      *drainTimeout,
		BreakerFailures:   *breakerFailures,
		BreakerCooldown:   *breakerCooldown,
	})
	if err != nil {
		fatal(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := s.ListenAndServe(ctx, *addr); err != nil {
		fatal(err)
	}
}

// loadAuthFile parses the tenant file: whitespace-separated fields
// <tenant> <token> [max_sketches] [rate_per_sec] [burst], '#' comments.
func loadAuthFile(path string) ([]middleware.TenantConfig, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var tenants []middleware.TenantConfig
	sc := bufio.NewScanner(f)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 || len(fields) > 5 {
			return nil, fmt.Errorf("%s:%d: want <tenant> <token> [max_sketches] [rate_per_sec] [burst]", path, lineNo)
		}
		tc := middleware.TenantConfig{Name: fields[0], Token: fields[1]}
		if len(fields) > 2 {
			if tc.MaxSketches, err = strconv.Atoi(fields[2]); err != nil {
				return nil, fmt.Errorf("%s:%d: max_sketches: %v", path, lineNo, err)
			}
		}
		if len(fields) > 3 {
			if tc.RatePerSec, err = strconv.ParseFloat(fields[3], 64); err != nil {
				return nil, fmt.Errorf("%s:%d: rate_per_sec: %v", path, lineNo, err)
			}
		}
		if len(fields) > 4 {
			if tc.Burst, err = strconv.Atoi(fields[4]); err != nil {
				return nil, fmt.Errorf("%s:%d: burst: %v", path, lineNo, err)
			}
		}
		tenants = append(tenants, tc)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return tenants, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "f0d:", err)
	os.Exit(1)
}
