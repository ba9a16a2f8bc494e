package server

import (
	"strconv"
	"time"

	"deesim/internal/obs"
)

// hostMetrics bundles a job host's instrument handles, named from its
// daemon's Series table. All handles come from one registry —
// obs.Default in production, so the /metrics endpoint exposes the
// whole process (simulator core, supervisor, and service series in one
// scrape); a private registry under test, so parallel tests do not
// fight over shared gauges.
type hostMetrics struct {
	reg  *obs.Registry
	http string // per-endpoint request series prefix

	queueDepth *obs.Gauge // jobs accepted but not yet running
	inflight   *obs.Gauge // jobs currently executing

	accepted    *obs.Counter
	sheds       *obs.Counter // 429: admission queue full
	drainSheds  *obs.Counter // 503: draining or low disk
	done        *obs.Counter
	failed      *obs.Counter
	interrupted *obs.Counter // interrupted (resume on restart)
	resumed     *obs.Counter // re-queued by crash recovery

	lowDisk     *obs.Gauge   // 1 while shedding because durable writes hit ENOSPC
	quarantined *obs.Counter // artifacts this host moved to .quarantine/
	healed      *obs.Counter // quarantined jobs re-entered into the run path

	brownoutLevel    *obs.Gauge   // 0 normal … 3 reads-only (see brownout.go)
	brownoutSheds    *obs.Counter // submissions shed by brownout policy (not plain quota)
	deadlineTimeouts *obs.Counter // jobs failed KindTimeout against their absolute deadline

	queueDepthInt   *obs.Gauge // waiting interactive jobs
	queueDepthBatch *obs.Gauge // waiting batch jobs
	shedsInt        *obs.Counter
	shedsBatch      *obs.Counter

	// Queue-wait vs run-time split, both with trace-ID exemplars: how
	// long a job sat admitted-but-idle versus how long it ran. Together
	// they answer "was the slow sweep queued or slow?" and the exemplar
	// links the offending bucket straight to a fetchable trace.
	queueWait *obs.Histogram
	run       *obs.Histogram
}

func newHostMetrics(reg *obs.Registry, d Daemon) *hostMetrics {
	if reg == nil {
		reg = obs.Default
	}
	p := d.Series.Prefix + "_"
	jobs := p + d.Noun + "s_"
	return &hostMetrics{
		reg:         reg,
		http:        d.Series.HTTP,
		queueDepth:  reg.GetOrCreateGauge(p + "queue_depth"),
		inflight:    reg.GetOrCreateGauge(jobs + "inflight"),
		accepted:    reg.GetOrCreateCounter(jobs + "accepted_total"),
		sheds:       reg.GetOrCreateCounter(p + "sheds_total"),
		drainSheds:  reg.GetOrCreateCounter(p + "drain_sheds_total"),
		done:        reg.GetOrCreateCounter(jobs + "done_total"),
		failed:      reg.GetOrCreateCounter(jobs + "failed_total"),
		interrupted: reg.GetOrCreateCounter(jobs + "interrupted_total"),
		resumed:     reg.GetOrCreateCounter(d.Series.Resumed),

		lowDisk:     reg.GetOrCreateGauge(p + "low_disk"),
		quarantined: reg.GetOrCreateCounter(p + "quarantined_total"),
		healed:      reg.GetOrCreateCounter(p + "healed_total"),

		brownoutLevel:    reg.GetOrCreateGauge(p + "brownout_level"),
		brownoutSheds:    reg.GetOrCreateCounter(p + "brownout_sheds_total"),
		deadlineTimeouts: reg.GetOrCreateCounter(p + "deadline_timeouts_total"),

		queueDepthInt:   reg.GetOrCreateGauge(p + `class_queue_depth{class="interactive"}`),
		queueDepthBatch: reg.GetOrCreateGauge(p + `class_queue_depth{class="batch"}`),
		shedsInt:        reg.GetOrCreateCounter(p + `class_sheds_total{class="interactive"}`),
		shedsBatch:      reg.GetOrCreateCounter(p + `class_sheds_total{class="batch"}`),

		queueWait: reg.GetOrCreateHistogram(p+d.Noun+"_queue_wait_seconds", obs.DefaultLatencyBuckets),
		run:       reg.GetOrCreateHistogram(p+d.Noun+"_run_seconds", obs.DefaultLatencyBuckets),
	}
}

// classShed bumps the per-class shed counter.
func (m *hostMetrics) classShed(class string) {
	if class == PriorityBatch {
		m.shedsBatch.Inc()
	} else {
		m.shedsInt.Inc()
	}
}

// httpRequest records one served request. Endpoint is the route name
// (a closed set fixed by the daemon's Handler, never the raw URL path)
// and status an HTTP code, so the label space is small and bounded —
// the cardinality rule the whole metric scheme follows.
func (m *hostMetrics) httpRequest(endpoint string, status int, d time.Duration) {
	m.reg.GetOrCreateCounter(
		m.http + `_requests_total{endpoint="` + endpoint + `",status="` + strconv.Itoa(status) + `"}`).Inc()
	m.reg.GetOrCreateHistogram(
		m.http+`_request_duration_seconds{endpoint="`+endpoint+`"}`, obs.DefaultLatencyBuckets).
		Observe(d.Seconds())
}

// cellMetrics are deesimd's leased-cell series (POST /v1/cells).
type cellMetrics struct {
	inflight *obs.Gauge   // leased distributed-sweep cells executing
	served   *obs.Counter // leased cells completed and returned
	sheds    *obs.Counter // leased cells shed (busy or draining)
}

func newCellMetrics(reg *obs.Registry) *cellMetrics {
	if reg == nil {
		reg = obs.Default
	}
	return &cellMetrics{
		inflight: reg.GetOrCreateGauge("deesim_server_cells_inflight"),
		served:   reg.GetOrCreateCounter("deesim_server_cells_served_total"),
		sheds:    reg.GetOrCreateCounter("deesim_server_cell_sheds_total"),
	}
}
