package faultinject

import (
	"bytes"
	"io"
	"net"
	"net/http"
	"time"
)

// resetError is the injected connection-reset error; it reports itself
// as a temporary network error, like a real RST would surface.
type resetError struct{ phase string }

func (e *resetError) Error() string {
	return "faultinject: injected fault: connection reset (" + e.phase + ")"
}
func (e *resetError) Unwrap() error   { return ErrInjected }
func (e *resetError) Timeout() bool   { return false }
func (e *resetError) Temporary() bool { return true }

var _ net.Error = (*resetError)(nil)

// RoundTripper wraps inner (nil = http.DefaultTransport) with the
// policy's HTTP-path faults. Each round trip draws one decision:
//
//   - latency: sleep frac·MaxLatency, then forward unchanged;
//   - reset (frac < ½): fail before the request is sent — the server
//     never sees it;
//   - reset (frac ≥ ½): forward the request, discard the server's
//     response, fail — the at-least-once generator: a retry after this
//     fault is a duplicate delivery, which set-semantics ingestion must
//     absorb without changing the estimate;
//   - truncate: forward, then cut the response body in half (headers,
//     including Content-Length, untouched);
//   - corrupt: forward, then overwrite the leading body bytes with 0xFF.
func (c *Chaos) RoundTripper(inner http.RoundTripper) http.RoundTripper {
	if inner == nil {
		inner = http.DefaultTransport
	}
	return &roundTripper{c: c, inner: inner}
}

type roundTripper struct {
	c     *Chaos
	inner http.RoundTripper
}

func (rt *roundTripper) RoundTrip(req *http.Request) (*http.Response, error) {
	d := rt.c.httpDecision()
	switch d.kind {
	case KindLatency:
		rt.c.count(KindLatency)
		time.Sleep(time.Duration(d.frac * float64(rt.c.cfg.maxLatency())))
	case KindReset:
		rt.c.count(KindReset)
		if d.frac < 0.5 {
			if req.Body != nil {
				req.Body.Close()
			}
			return nil, &resetError{phase: "before send"}
		}
		resp, err := rt.inner.RoundTrip(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		return nil, &resetError{phase: "after send"}
	case KindTruncate:
		resp, err := rt.inner.RoundTrip(req)
		if err != nil {
			return resp, err
		}
		body, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if rerr != nil {
			return nil, rerr
		}
		rt.c.count(KindTruncate)
		resp.Body = io.NopCloser(bytes.NewReader(body[:len(body)/2]))
		return resp, nil
	case KindCorrupt:
		resp, err := rt.inner.RoundTrip(req)
		if err != nil {
			return resp, err
		}
		body, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if rerr != nil {
			return nil, rerr
		}
		rt.c.count(KindCorrupt)
		for i := 0; i < len(body) && i < 8; i++ {
			body[i] = 0xFF
		}
		resp.Body = io.NopCloser(bytes.NewReader(body))
		return resp, nil
	}
	return rt.inner.RoundTrip(req)
}
