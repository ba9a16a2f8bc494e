package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"deesim/internal/client"
	"deesim/internal/coord"
	"deesim/internal/durable"
	"deesim/internal/obs"
	"deesim/internal/server"
	"deesim/internal/superv"
)

// The traced phase records spans only here, in the benchmark: around
// its own calls into each layer's public functions and at the public
// seams a deployment accepts — durable.FS, an http.Handler around
// Handler(), the client's http.RoundTripper, and the coordinator's
// NewWorkerClient. Nothing inside internal/ is instrumented. Spans stay
// in memory and are written as one Chrome-trace timeline at the end.
// Every method is a no-op on a nil *tracer, which is what untraced
// phases pass around.

type ctxKey int

const (
	sweepKey ctxKey = iota
	leaseKey
)

// leaseHeader carries a coordinator lease id from the dispatching
// client to the worker's handler wrapper, pairing the two timings.
const leaseHeader = "X-Bench-Lease"

func withSweep(ctx context.Context, sw *sweep) context.Context {
	return context.WithValue(ctx, sweepKey, sw)
}

func sweepFrom(ctx context.Context) *sweep {
	sw, _ := ctx.Value(sweepKey).(*sweep)
	return sw
}

type tspan struct {
	lane, name string
	sw         *sweep // nil until attributed
	job        string // job or coordinator sweep id, attributed at the end
	start, end time.Time
}

type leaseTiming struct {
	sw                 *sweep
	rpcStart, rpcEnd   time.Time
	workStart, workEnd time.Time
}

type tracer struct {
	mu    sync.Mutex
	spans []tspan
	// byTrace and byJob attribute spans to the sweep that caused them.
	byTrace   map[string]*sweep
	byJob     map[string]*sweep
	fragPaths []string

	syncs         int
	syncTime      time.Duration
	bytesWritten  int64
	verifiedReads int
	journalSyncs  []float64            // ms
	resultDone    map[string]time.Time // job id -> result.json renamed into place
	routeMs       map[string][]float64
	polls         int
	leases        map[string]*leaseTiming
}

func newTracer() *tracer {
	return &tracer{
		byTrace:    map[string]*sweep{},
		byJob:      map[string]*sweep{},
		resultDone: map[string]time.Time{},
		routeMs:    map[string][]float64{},
		leases:     map[string]*leaseTiming{},
	}
}

// span opens a span attributed to sw on the given lane; the returned
// func closes it.
func (t *tracer) span(sw *sweep, lane, name string) func() {
	if t == nil {
		return func() {}
	}
	start := time.Now()
	return func() { t.record(tspan{lane: lane, name: name, sw: sw, start: start, end: time.Now()}) }
}

func (t *tracer) record(sp tspan) {
	t.mu.Lock()
	t.spans = append(t.spans, sp)
	t.mu.Unlock()
}

func (t *tracer) bindTrace(traceID string, sw *sweep) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.byTrace[traceID] = sw
	t.mu.Unlock()
}

func (t *tracer) bindJob(id string, sw *sweep) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.byJob[id] = sw
	t.mu.Unlock()
}

func (t *tracer) noteFragments(path string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.fragPaths = append(t.fragPaths, path)
	t.mu.Unlock()
}

// sweepOfTraceparent maps a W3C traceparent to the sweep that minted
// its trace (nil for heartbeats and other unattributed traffic).
func (t *tracer) sweepOfTraceparent(tp string) *sweep {
	tc, ok := obs.ParseTraceparent(tp)
	if !ok {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.byTrace[tc.TraceID]
}

// jobOfPath extracts the job ("jobs/<id>/") or coordinator sweep
// ("sweeps/<id>/") id from a state-directory path.
func jobOfPath(path string) string {
	parts := strings.Split(filepath.ToSlash(path), "/")
	for i := 0; i+1 < len(parts); i++ {
		if parts[i] == "jobs" || parts[i] == "sweeps" {
			return parts[i+1]
		}
	}
	return ""
}

// durable.FS wrapper

func (t *tracer) fs() durable.FS { return timedFS{FS: durable.OS, t: t} }

type timedFS struct {
	durable.FS
	t *tracer
}

type timedFile struct {
	durable.File
	t *tracer
}

func (f timedFS) OpenFile(name string, flag int, perm os.FileMode) (durable.File, error) {
	file, err := f.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return timedFile{File: file, t: f.t}, nil
}

func (f timedFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.t.mu.Lock()
	f.t.bytesWritten += int64(n)
	f.t.mu.Unlock()
	return n, err
}

func (f timedFile) Sync() error {
	start := time.Now()
	err := f.File.Sync()
	f.t.noteSync(f.Name(), start)
	return err
}

func (f timedFS) SyncDir(dir string) error {
	start := time.Now()
	err := f.FS.SyncDir(dir)
	f.t.noteSync(dir, start)
	return err
}

func (t *tracer) noteSync(path string, start time.Time) {
	end := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.syncs++
	t.syncTime += end.Sub(start)
	if strings.HasSuffix(path, ".journal") {
		t.journalSyncs = append(t.journalSyncs, ms(end.Sub(start)))
	}
	t.spans = append(t.spans, tspan{lane: "durable", name: "fsync " + filepath.Base(path), job: jobOfPath(path), start: start, end: end})
}

func (f timedFS) ReadFile(name string) ([]byte, error) {
	data, err := f.FS.ReadFile(name)
	if err == nil && durable.IsSumPath(name) {
		f.t.mu.Lock()
		f.t.verifiedReads++
		f.t.mu.Unlock()
	}
	return data, err
}

func (f timedFS) Rename(oldpath, newpath string) error {
	err := f.FS.Rename(oldpath, newpath)
	if err != nil {
		return err
	}
	if filepath.Base(newpath) == "result.json" {
		now := time.Now()
		f.t.mu.Lock()
		f.t.resultDone[jobOfPath(newpath)] = now
		f.t.mu.Unlock()
	}
	return nil
}

// HTTP wrappers

// routeOf names an API route without its ids.
func routeOf(method, path string) string {
	switch {
	case method == http.MethodPost && path == "/v1/jobs":
		return "submit"
	case method == http.MethodPost && path == "/v1/cells":
		return "cell"
	case method == http.MethodGet && strings.HasPrefix(path, "/v1/jobs/") && strings.HasSuffix(path, "/result"):
		return "result"
	case method == http.MethodGet && strings.HasPrefix(path, "/v1/jobs/"):
		return "status"
	case strings.HasPrefix(path, "/v1/workers/"):
		return "heartbeat"
	}
	return strings.ReplaceAll(strings.Trim(path, "/"), "/", ".")
}

// handler wraps a deployment's Handler(): per-route handling time,
// and the worker-side half of each lease.
func (t *tracer) handler(h http.Handler, lane string) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h.ServeHTTP(w, r)
		end := time.Now()
		route := routeOf(r.Method, r.URL.Path)
		sw := t.sweepOfTraceparent(r.Header.Get(obs.TraceparentHeader))
		t.mu.Lock()
		defer t.mu.Unlock()
		t.routeMs[route] = append(t.routeMs[route], ms(end.Sub(start)))
		if lease := r.Header.Get(leaseHeader); lease != "" {
			lt := t.lease(lease)
			lt.workStart, lt.workEnd = start, end
		}
		t.spans = append(t.spans, tspan{lane: lane, name: "handle " + route, sw: sw, job: jobOfPath(r.URL.Path), start: start, end: end})
	})
}

// lease returns the timing record for a lease id. Caller holds t.mu.
func (t *tracer) lease(id string) *leaseTiming {
	lt := t.leases[id]
	if lt == nil {
		lt = &leaseTiming{}
		t.leases[id] = lt
	}
	return lt
}

type timedTransport struct {
	inner http.RoundTripper
	t     *tracer
}

// roundTripper wraps a client transport: per-request spans, status
// polls counted, and the lease id forwarded for the worker's wrapper.
func (t *tracer) roundTripper(inner http.RoundTripper) http.RoundTripper {
	if t == nil {
		return inner
	}
	return timedTransport{inner: inner, t: t}
}

func (tt timedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	ctx := req.Context()
	lane := "client"
	if lease, _ := ctx.Value(leaseKey).(string); lease != "" {
		req = req.Clone(ctx)
		req.Header.Set(leaseHeader, lease)
		lane = "coord"
	}
	route := routeOf(req.Method, req.URL.Path)
	sw := sweepFrom(ctx)
	if sw == nil {
		sw = tt.t.sweepOfTraceparent(req.Header.Get(obs.TraceparentHeader))
	}
	start := time.Now()
	resp, err := tt.inner.RoundTrip(req)
	end := time.Now()
	tt.t.mu.Lock()
	if route == "status" && lane == "client" {
		tt.t.polls++
	}
	tt.t.spans = append(tt.t.spans, tspan{lane: lane, name: "http " + route, sw: sw, start: start, end: end})
	tt.t.mu.Unlock()
	return resp, err
}

// coordCellTimeout mirrors coord.Config's default dispatch budget
// (LeaseTTL 2m + 10s), which the default worker client uses.
const coordCellTimeout = 130 * time.Second

type timedWorker struct {
	inner coord.WorkerClient
	t     *tracer
}

// workerClient is a coord.Config.NewWorkerClient building the same
// client the coordinator builds by default, with the lease RPC timed.
func (t *tracer) workerClient(baseURL string) coord.WorkerClient {
	c := client.New(baseURL)
	c.Retry = superv.RetryPolicy{Attempts: 1}
	c.HTTP = &http.Client{Timeout: coordCellTimeout, Transport: t.roundTripper(http.DefaultTransport)}
	return timedWorker{inner: c, t: t}
}

func (w timedWorker) RunCell(ctx context.Context, req server.CellRequest) (json.RawMessage, error) {
	sw := w.t.sweepOfTraceparent(req.Spec.Trace)
	start := time.Now()
	raw, err := w.inner.RunCell(context.WithValue(ctx, leaseKey, req.Lease), req)
	end := time.Now()
	w.t.mu.Lock()
	lt := w.t.lease(req.Lease)
	lt.sw, lt.rpcStart, lt.rpcEnd = sw, start, end
	w.t.spans = append(w.t.spans, tspan{lane: "coord", name: "lease " + req.Task.Key(), sw: sw, start: start, end: end})
	w.t.mu.Unlock()
	return raw, err
}

// attribute resolves every span's sweep from the job ids bound after
// submission returned.
func (t *tracer) attribute() {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.spans {
		if sp := &t.spans[i]; sp.sw == nil && sp.job != "" {
			sp.sw = t.byJob[sp.job]
		}
	}
}

// unattributedFrac is the share of sweep wall time not covered by any
// span attributed to the sweep.
func (t *tracer) unattributedFrac(sweeps []*sweep) float64 {
	t.attribute()
	bySweep := map[*sweep][][2]time.Time{}
	for _, sp := range t.spans {
		if sp.sw != nil {
			bySweep[sp.sw] = append(bySweep[sp.sw], [2]time.Time{sp.start, sp.end})
		}
	}
	var total, uncovered time.Duration
	for _, sw := range sweeps {
		total += sw.latency()
		uncovered += sw.latency() - covered(bySweep[sw], sw.start, sw.end)
	}
	return ratio(float64(uncovered), float64(total))
}

// covered is the length of the union of intervals within [lo, hi].
func covered(ivs [][2]time.Time, lo, hi time.Time) time.Duration {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0].Before(ivs[j][0]) })
	var sum time.Duration
	cur := lo
	for _, iv := range ivs {
		s, e := iv[0], iv[1]
		if s.Before(cur) {
			s = cur
		}
		if e.After(hi) {
			e = hi
		}
		if e.After(s) {
			sum += e.Sub(s)
			cur = e
		}
	}
	return sum
}

// writeTimeline writes the phase's spans — plus one root span per
// sweep — as a Chrome-trace JSON document Perfetto loads. Lanes are
// layers, split by load client; spans of one sweep share the trace id
// "sweep-<n>".
func (t *tracer) writeTimeline(path string, sweeps []*sweep, extra []tspan) error {
	t.attribute()
	spans := append(append([]tspan(nil), t.spans...), extra...)
	for _, sw := range sweeps {
		spans = append(spans, tspan{lane: "sweep", name: fmt.Sprintf("sweep %d", sw.idx), sw: sw, start: sw.start, end: sw.end})
	}
	lanes := map[string]*obs.Lane{}
	for i, sp := range spans {
		lane, trace := sp.lane+" (no sweep)", ""
		if sp.sw != nil {
			lane = sp.lane
			trace = "sweep-" + strconv.Itoa(sp.sw.idx)
		}
		ln := lanes[lane]
		if ln == nil {
			ln = &obs.Lane{Name: lane}
			lanes[lane] = ln
		}
		ln.Frags = append(ln.Frags, obs.SpanFragment{
			Trace: trace, Span: strconv.Itoa(i + 1), Name: sp.name,
			Start: sp.start.UnixNano(), End: sp.end.UnixNano(),
		})
	}
	names := make([]string, 0, len(lanes))
	for n := range lanes {
		names = append(names, n)
	}
	sort.Strings(names)
	var out []obs.Lane
	for _, n := range names {
		out = append(out, *lanes[n])
	}
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteTimeline(f, out); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// fragmentLines counts span fragments appended to the deployment's
// fragment logs.
func (t *tracer) fragmentLines() int {
	n := 0
	for _, p := range t.fragPaths {
		data, err := os.ReadFile(p)
		if err == nil {
			n += strings.Count(string(data), "\n")
		}
	}
	return n
}
