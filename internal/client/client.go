// Package client is the retrying HTTP client for deesimd. It speaks
// the /v1/jobs API, classifies every failure into a runx kind (the
// error body's "kind" field is authoritative, the HTTP status a
// fallback), retries only retryable kinds with superv's capped
// seeded-jitter backoff, honors Retry-After hints from load shedding,
// and fails fast through a circuit breaker once the server looks dead.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"deesim/internal/budget"
	"deesim/internal/durable"
	"deesim/internal/obs"
	"deesim/internal/runx"
	"deesim/internal/server"
	"deesim/internal/superv"
)

const stageClient = "client.Client"

// Client talks to one deesimd instance. The zero value is unusable;
// construct with New.
type Client struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8425".
	BaseURL string
	// HTTP is the underlying transport-owning client. Tests swap in a
	// faultinject.FaultyTransport here.
	HTTP *http.Client
	// Retry governs per-request retries of retryable failures
	// (overload, unavailable, deadline): attempts, base backoff, cap,
	// jitter seed. The Retry-After header, when present, raises the
	// computed delay but never lowers it below the server's hint.
	Retry superv.RetryPolicy
	// Breaker, if non-nil, fails fast while the server is unhealthy.
	// Only transport errors and 5xx responses count against it; shed
	// requests (429) and validation errors prove the server is alive.
	Breaker *Breaker
	// Logger receives each retry and poll back-off at Warn. New sets
	// obs.Discard, which still tees them into obs.Flight.
	Logger *slog.Logger
	// Budget, if non-nil, is the shared retry budget: each retry —
	// including one provoked by a breaker fast-fail — withdraws a token,
	// and an exhausted budget ends the attempt loop with the last error
	// instead of backing off. Nil means unlimited (the old behavior).
	Budget *budget.Budget

	sleep func(ctx context.Context, d time.Duration) error // test seam

	// lastHint is the most recent Retry-After hint in nanoseconds
	// (atomic); Wait's adaptive poll backoff reads it.
	lastHint int64
}

// New returns a client for the given base URL with modest defaults:
// 4 attempts, 250ms base backoff, a 5-failure/2s breaker, and a 30s
// per-request HTTP timeout as a backstop under the caller's context.
func New(baseURL string) *Client {
	return &Client{
		BaseURL: strings.TrimRight(baseURL, "/"),
		HTTP:    &http.Client{Timeout: 30 * time.Second},
		Retry:   superv.RetryPolicy{Attempts: 4, Backoff: 250 * time.Millisecond},
		Breaker: &Breaker{},
		Logger:  obs.Discard,
	}
}

// Submit posts a sweep spec and returns the accepted job's status.
// deesimd persists the spec before acknowledging, so a 202 means the
// job survives a daemon crash. A retried submit after an ambiguous
// transport failure can double-submit; the duplicate computes the same
// deterministic result under a distinct id, which wastes work but
// corrupts nothing.
func (c *Client) Submit(ctx context.Context, sp server.Spec) (server.JobStatus, error) {
	body, err := json.Marshal(sp)
	if err != nil {
		return server.JobStatus{}, runx.Newf(runx.KindInvalidInput, stageClient, "encode spec: %v", err)
	}
	var st server.JobStatus
	if err := c.do(ctx, http.MethodPost, "/v1/jobs", body, &st); err != nil {
		return server.JobStatus{}, err
	}
	return st, nil
}

// Status fetches one job's status.
func (c *Client) Status(ctx context.Context, id string) (server.JobStatus, error) {
	var st server.JobStatus
	if err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id, nil, &st); err != nil {
		return server.JobStatus{}, err
	}
	return st, nil
}

// List fetches every job the daemon knows about.
func (c *Client) List(ctx context.Context) ([]server.JobStatus, error) {
	var sts []server.JobStatus
	if err := c.do(ctx, http.MethodGet, "/v1/jobs", nil, &sts); err != nil {
		return nil, err
	}
	return sts, nil
}

// Result fetches a completed job's result tables, verbatim.
func (c *Client) Result(ctx context.Context, id string) (json.RawMessage, error) {
	var raw json.RawMessage
	if err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id+"/result", nil, &raw); err != nil {
		return nil, err
	}
	return raw, nil
}

// RunCell executes one distributed-sweep cell on the worker,
// synchronously, returning the CellResult body verbatim — the
// coordinator journals these bytes unparsed, so byte-for-byte fidelity
// here is what makes duplicate detection exact. Exactly one attempt:
// the coordinator owns cell retry through its lease state machine, so
// a client-level retry would double-execute behind the lease's back.
// The breaker still gates and observes the attempt — that is the
// per-worker fail-fast the coordinator leans on during a partition.
func (c *Client) RunCell(ctx context.Context, req server.CellRequest) (json.RawMessage, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, runx.Newf(runx.KindInvalidInput, stageClient, "encode cell request: %v", err)
	}
	if err := c.Breaker.Allow(); err != nil {
		return nil, err
	}
	var raw json.RawMessage
	if _, err := c.once(ctx, http.MethodPost, "/v1/cells", body, &raw); err != nil {
		return nil, err
	}
	return raw, nil
}

// TraceFetch fetches a sweep's merged fleet timeline from a
// coordinator (GET /v1/trace/<id>): Chrome-trace-event JSON, verbatim,
// ready for Perfetto. Raw bytes for the same layering reason as Fleet.
func (c *Client) TraceFetch(ctx context.Context, id string) (json.RawMessage, error) {
	var raw json.RawMessage
	if err := c.do(ctx, http.MethodGet, "/v1/trace/"+id, nil, &raw); err != nil {
		return nil, err
	}
	return raw, nil
}

// Fleet fetches a coordinator's worker registry (GET /v1/workers),
// verbatim. Raw JSON rather than a typed slice: the client package
// sits below coord in the import graph, and the CLI only re-emits it.
func (c *Client) Fleet(ctx context.Context) (json.RawMessage, error) {
	var raw json.RawMessage
	if err := c.do(ctx, http.MethodGet, "/v1/workers", nil, &raw); err != nil {
		return nil, err
	}
	return raw, nil
}

// Healthy probes /healthz (process liveness).
func (c *Client) Healthy(ctx context.Context) error {
	return c.do(ctx, http.MethodGet, "/healthz", nil, nil)
}

// Ready probes /readyz (not draining).
func (c *Client) Ready(ctx context.Context) error {
	return c.do(ctx, http.MethodGet, "/readyz", nil, nil)
}

// Wait polls a job's status until it completes, returning the final
// status. A failed job returns its status AND a typed error
// reconstructed from the job's kind. Transient polling failures
// (daemon restarting, shed request) are tolerated and polling
// continues; non-retryable errors and context cancellation end the
// wait. An interrupted job (daemon draining) keeps being polled — it
// resumes when the daemon comes back.
//
// The poll cadence is adaptive: a healthy poll runs at the given
// interval, but consecutive retryable failures double the delay — and
// any Retry-After hint the server sent raises it further — so a
// draining or overloaded daemon is not hammered at full rate. The
// backoff is capped at WaitBackoffCap (or 8× poll, whichever is
// larger) and resets to the base interval on the first healthy poll.
func (c *Client) Wait(ctx context.Context, id string, poll time.Duration) (server.JobStatus, error) {
	if poll <= 0 {
		poll = 500 * time.Millisecond
	}
	capd := WaitBackoffCap
	if m := 8 * poll; m > capd {
		capd = m
	}
	delay := poll
	for {
		st, err := c.Status(ctx, id)
		switch {
		case err == nil:
			delay = poll // healthy server: back to base cadence
			switch st.State {
			case server.StateDone:
				return st, nil
			case server.StateFailed:
				kind := runx.KindFromString(st.Kind)
				if kind == runx.KindTimeout && st.Deadline != "" {
					// Deadline-exceeded is its own outcome, not a generic
					// failure: name the missed deadline and keep the timeout
					// kind so the CLI exits with the deadline code.
					return st, runx.Newf(runx.KindTimeout, stageClient,
						"job %s missed its deadline %s: %s", id, st.Deadline, st.Error)
				}
				return st, runx.Newf(kind, stageClient, "job %s failed: %s", id, st.Error)
			}
		case runx.Retryable(err):
			delay *= 2
			if hint := c.retryAfterHint(); hint > delay {
				delay = hint
			}
			if delay > capd {
				delay = capd
			}
			c.Logger.LogAttrs(ctx, slog.LevelWarn, "poll failed, will keep polling",
				slog.String("job", id), slog.Duration("next_in", delay), slog.Any("err", err))
		default:
			return server.JobStatus{}, err
		}
		if err := c.snooze(ctx, delay); err != nil {
			return server.JobStatus{}, err
		}
	}
}

// WaitBackoffCap bounds Wait's adaptive poll backoff so a long outage
// never stretches the cadence past recovery-detection usefulness.
const WaitBackoffCap = 10 * time.Second

// retryAfterHint returns the most recent Retry-After hint any response
// carried (0 if none yet). Wait consults it so its poll backoff honors
// the server's own estimate of when capacity returns.
func (c *Client) retryAfterHint() time.Duration {
	return time.Duration(atomic.LoadInt64(&c.lastHint))
}

// do runs one logical request through the retry loop: breaker gate,
// single attempt, classification, then seeded-jitter backoff (raised
// to any Retry-After hint) before the next attempt. Only retryable
// kinds — overload, unavailable, deadline, and friends — are retried.
func (c *Client) do(ctx context.Context, method, path string, body []byte, out any) error {
	attempts := c.Retry.Attempts
	if attempts < 1 {
		attempts = 1
	}
	var last error
	for attempt := 1; ; attempt++ {
		if err := runx.CtxErr(ctx, stageClient); err != nil {
			if last != nil {
				return last
			}
			return err
		}
		var retryAfter time.Duration
		err := c.Breaker.Allow()
		if err == nil {
			retryAfter, err = c.once(ctx, method, path, body, out)
		}
		if err == nil {
			return nil
		}
		last = err
		if attempt >= attempts || !runx.Retryable(err) {
			return last
		}
		if !c.Budget.Allow("client") {
			mBudgetDenied.Inc()
			c.Logger.LogAttrs(ctx, slog.LevelWarn, "retry budget exhausted, giving up", slog.String("method", method),
				slog.String("path", path), slog.Int("attempt", attempt), slog.Int("attempts", attempts), slog.Any("err", err))
			return last
		}
		delay := c.Retry.Delay(method+" "+path, attempt+1)
		if retryAfter > delay {
			delay = retryAfter
		}
		mRetries.Inc()
		c.Logger.LogAttrs(ctx, slog.LevelWarn, "retrying request", slog.String("method", method), slog.String("path", path),
			slog.Int("attempt", attempt), slog.Int("attempts", attempts), slog.Duration("delay", delay), slog.Any("err", err))
		if serr := c.snooze(ctx, delay); serr != nil {
			return last
		}
	}
}

// once performs a single HTTP attempt and classifies the outcome. The
// returned retryAfter is the server's backoff hint (0 if absent).
func (c *Client) once(ctx context.Context, method, path string, body []byte, out any) (retryAfter time.Duration, err error) {
	mRequests.Inc()
	defer func() {
		if err != nil {
			mFailures.Inc()
		}
	}()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, rd)
	if err != nil {
		return 0, runx.Newf(runx.KindInvalidInput, stageClient, "build request: %v", err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	// Trace propagation: every attempt of a traced request gets its own
	// child span (same trace ID, fresh span ID) injected as the
	// traceparent header — so retries and breaker half-open probes stay
	// distinguishable in the merged timeline while joining one trace.
	endSpan := func() {}
	if tc, ok := obs.TraceContextFrom(ctx); ok {
		if tc.Sampled {
			var sctx context.Context
			sctx, endSpan = obs.StartSpan(ctx, "http "+method+" "+path, nil)
			tc, _ = obs.TraceContextFrom(sctx)
		}
		req.Header.Set(obs.TraceparentHeader, tc.Traceparent())
	}
	defer endSpan()
	resp, err := c.httpClient().Do(req)
	if err != nil {
		c.Breaker.Record(false)
		if cerr := runx.CtxErr(ctx, stageClient); cerr != nil {
			return 0, cerr
		}
		return 0, runx.Newf(runx.KindUnavailable, stageClient, "%s %s: %v", method, path, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 4<<20))
	if err != nil {
		c.Breaker.Record(false)
		return 0, runx.Newf(runx.KindUnavailable, stageClient, "%s %s: read body: %v", method, path, err)
	}
	if resp.StatusCode >= 200 && resp.StatusCode < 300 {
		c.Breaker.Record(true)
		// The server stamps result bodies with their content digest;
		// re-hashing what actually arrived extends the storage integrity
		// check across the wire (proxy truncation, transport bit flips).
		if sum := resp.Header.Get(durable.DigestHeader); sum != "" {
			if verr := durable.Verify(data, sum); verr != nil {
				return 0, runx.Newf(runx.KindCorrupt, stageClient, "%s %s: response body failed digest check: %v", method, path, verr)
			}
		}
		if out == nil {
			return 0, nil
		}
		if err := json.Unmarshal(data, out); err != nil {
			return 0, runx.Newf(runx.KindCorrupt, stageClient, "%s %s: decode response: %v", method, path, err)
		}
		return 0, nil
	}
	// Shed requests and client errors prove the server is up; only 5xx
	// marks it unhealthy.
	c.Breaker.Record(resp.StatusCode < 500)
	hint := parseRetryAfter(resp.Header.Get("Retry-After"))
	if hint > 0 {
		atomic.StoreInt64(&c.lastHint, int64(hint))
	}
	return hint, classify(method, path, resp.StatusCode, data)
}

// classify turns a non-2xx response into a typed error. The JSON error
// body's kind name is authoritative (it survives proxies that rewrite
// statuses); the HTTP status is the fallback for foreign bodies.
func classify(method, path string, status int, body []byte) error {
	var eb struct {
		Error string `json:"error"`
		Kind  string `json:"kind"`
	}
	kind := runx.KindUnknown
	msg := strings.TrimSpace(string(body))
	if err := json.Unmarshal(body, &eb); err == nil && eb.Error != "" {
		msg = eb.Error
		kind = runx.KindFromString(eb.Kind)
	}
	if kind == runx.KindUnknown {
		kind = runx.KindFromHTTPStatus(status)
	}
	if msg == "" {
		msg = http.StatusText(status)
	}
	return runx.Newf(kind, stageClient, "%s %s: %s (HTTP %d)", method, path, msg, status)
}

// parseRetryAfter reads the delay-seconds form of Retry-After (the
// only form deesimd emits); HTTP-date or garbage yields 0.
func parseRetryAfter(v string) time.Duration {
	if v == "" {
		return 0
	}
	secs, err := strconv.Atoi(strings.TrimSpace(v))
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

func (c *Client) snooze(ctx context.Context, d time.Duration) error {
	if c.sleep != nil {
		return c.sleep(ctx, d)
	}
	if d <= 0 {
		if err := runx.CtxErr(ctx, stageClient); err != nil {
			return err
		}
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return runx.CtxErr(ctx, stageClient)
	case <-t.C:
		return nil
	}
}
