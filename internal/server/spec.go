package server

import (
	"strings"
	"time"

	"deesim/internal/bench"
	"deesim/internal/experiments"
	"deesim/internal/ilpsim"
	"deesim/internal/runx"
)

// Spec is a sweep submission: the JSON body of POST /v1/jobs. It names
// a (workloads × models × resource-levels) matrix in the same
// vocabulary as the deesim CLI flags, plus per-job execution knobs.
// Empty slices mean the paper defaults (all workloads, the seven paper
// models, the Figure 5 resource axis).
type Spec struct {
	Workloads []string `json:"workloads,omitempty"`
	Models    []string `json:"models,omitempty"`
	Resources []int    `json:"resources,omitempty"`
	Predictor string   `json:"predictor,omitempty"`
	Scale     int      `json:"scale,omitempty"`
	MaxInstrs uint64   `json:"max,omitempty"`
	Penalty   int      `json:"penalty,omitempty"`
	StrictMem bool     `json:"strictmem,omitempty"`

	// Timeout is the job's wall-clock deadline (e.g. "2m"). It is
	// propagated into the sweep's runx context: an expired job fails
	// with kind "deadline exceeded" and is not resumed on restart.
	Timeout string `json:"timeout,omitempty"`
	// Retries/Backoff parameterize per-cell retry of retryable failures
	// (deadline, deadlock, panic), as in deesim -retries/-backoff.
	Retries int    `json:"retries,omitempty"`
	Backoff string `json:"backoff,omitempty"`
	// CellDelay inserts a synthetic pause after every fresh cell (e.g.
	// "200ms") — a load-drill knob: overload, drain, and kill/restart
	// tests use it to hold a sweep open long enough to interrupt. The
	// pause sits after the cell's journal record is durable, so it
	// widens the crash window without ever losing work.
	CellDelay string `json:"cell_delay,omitempty"`

	// Priority is the sweep's admission class: "interactive" (the
	// default — an absent field keeps old clients on the pre-SLO
	// behavior) or "batch". Batch sweeps admit against their own, smaller
	// queue quota and are the first work shed under brownout; interactive
	// sweeps are shed only once their own queue is full.
	Priority string `json:"priority,omitempty"`
	// Deadline is the sweep's absolute SLO deadline in RFC 3339 form
	// (e.g. "2026-08-08T17:30:00Z"). Unlike Timeout — a per-run relative
	// budget that restarts from zero on every resume — the deadline
	// travels with the sweep through every hop (client, coordinator
	// lease dispatch, worker cell contexts): once it passes, the sweep
	// is cancelled everywhere, fails with kind "deadline exceeded"
	// (KindTimeout), and is never silently re-dispatched.
	Deadline string `json:"deadline,omitempty"`

	// Trace is the W3C traceparent minted at submission ("00-<trace
	// id>-<span id>-<flags>"). It is persisted with the spec — so a
	// resumed job rejoins the trace that submitted it — and travels
	// inside every leased cell's Spec, stitching the fleet's span
	// fragments into one timeline. Absent or malformed means untraced;
	// it is never part of a memo key (the same cell must hit the same
	// cache entry regardless of who traced it).
	Trace string `json:"trace,omitempty"`
}

// Priority classes a Spec may carry.
const (
	PriorityInteractive = "interactive"
	PriorityBatch       = "batch"
)

// Class normalizes the spec's priority: "batch" if declared, otherwise
// interactive — so sweeps from old clients (no priority field) keep
// their old first-class treatment.
func (sp Spec) Class() string {
	if strings.ToLower(strings.TrimSpace(sp.Priority)) == PriorityBatch {
		return PriorityBatch
	}
	return PriorityInteractive
}

// ParseDeadline returns the spec's absolute deadline, or the zero time
// when none is set.
func (sp Spec) ParseDeadline() (time.Time, error) {
	if sp.Deadline == "" {
		return time.Time{}, nil
	}
	t, err := time.Parse(time.RFC3339, sp.Deadline)
	if err != nil {
		return time.Time{}, runx.Newf(runx.KindInvalidInput, stageSpec,
			"bad deadline %q (want RFC 3339, e.g. %q)", sp.Deadline, "2026-08-08T17:30:00Z")
	}
	return t, nil
}

const stageSpec = "server.Spec"

// resolve expands the spec into concrete workloads and an experiments
// config, validating both. All failures are typed KindInvalidInput.
func (sp Spec) resolve() ([]bench.Workload, experiments.Config, error) {
	cfg := experiments.Config{
		Scale:     sp.Scale,
		MaxInstrs: sp.MaxInstrs,
		Predictor: sp.Predictor,
		Resources: sp.Resources,
		Opts: ilpsim.Options{
			Penalty:      sp.Penalty,
			StrictMemory: sp.StrictMem,
		},
	}
	if len(sp.Models) > 0 {
		ms, err := resolveModels(sp.Models)
		if err != nil {
			return nil, cfg, err
		}
		cfg.Models = ms
	}
	for _, et := range sp.Resources {
		if et < 0 {
			return nil, cfg, runx.Newf(runx.KindInvalidInput, stageSpec, "negative resource level %d (0 = unlimited)", et)
		}
	}
	if err := cfg.Validate(); err != nil {
		return nil, cfg, err
	}
	ws, err := bench.Select(sp.Workloads)
	if err != nil {
		return nil, cfg, runx.Newf(runx.KindInvalidInput, stageSpec, "%v", err)
	}
	return ws, cfg, nil
}

// Resolve expands the spec into concrete workloads and an experiments
// config — the exported face of resolve, for the distributed-sweep
// coordinator, which must decompose a spec into the exact cell set a
// single-node run would execute.
func (sp Spec) Resolve() ([]bench.Workload, experiments.Config, error) {
	return sp.resolve()
}

// Validate checks the spec without running anything: matrix resolution
// plus duration syntax. The admission handler calls it so a malformed
// submission is rejected with 400 before it costs a queue slot.
func (sp Spec) Validate() error {
	if _, _, err := sp.resolve(); err != nil {
		return err
	}
	for _, d := range []struct{ name, val string }{
		{"timeout", sp.Timeout}, {"backoff", sp.Backoff}, {"cell_delay", sp.CellDelay},
	} {
		if _, err := ParseDuration(d.name, d.val); err != nil {
			return err
		}
	}
	if sp.Retries < 0 {
		return runx.Newf(runx.KindInvalidInput, stageSpec, "negative retries %d", sp.Retries)
	}
	switch strings.ToLower(strings.TrimSpace(sp.Priority)) {
	case "", PriorityInteractive, PriorityBatch:
	default:
		return runx.Newf(runx.KindInvalidInput, stageSpec,
			"unknown priority %q (want %q or %q)", sp.Priority, PriorityInteractive, PriorityBatch)
	}
	if _, err := sp.ParseDeadline(); err != nil {
		return err
	}
	return nil
}

// CellsTotal reports how many matrix cells the spec decomposes into
// (0 if the spec does not resolve).
func (sp Spec) CellsTotal() int {
	ws, cfg, err := sp.resolve()
	if err != nil {
		return 0
	}
	return experiments.MatrixTaskCount(ws, cfg)
}

// ParseDuration parses one of a spec's duration fields (timeout,
// backoff, cell_delay); empty means zero. Errors are KindInvalidInput.
func ParseDuration(name, val string) (time.Duration, error) {
	if val == "" {
		return 0, nil
	}
	d, err := time.ParseDuration(val)
	if err != nil || d < 0 {
		return 0, runx.Newf(runx.KindInvalidInput, stageSpec, "bad %s %q (want a non-negative Go duration like \"30s\")", name, val)
	}
	return d, nil
}

// resolveModels resolves spec model names through ilpsim.ParseModel,
// the deesim CLI's vocabulary.
func resolveModels(names []string) ([]ilpsim.Model, error) {
	var out []ilpsim.Model
	for _, n := range names {
		m, ok := ilpsim.ParseModel(n)
		if !ok {
			return nil, runx.Newf(runx.KindInvalidInput, stageSpec, "unknown model %q", n)
		}
		out = append(out, m)
	}
	return out, nil
}
