package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"deesim/internal/obs"
)

func (o options) duration() time.Duration {
	return time.Duration(o.seconds * float64(time.Second))
}

// warmup is the untimed load that precedes the timed phase: the first
// sweeps of a fresh deployment pay for heap growth, first page faults,
// new connections and the first files, so they run slower than the
// rest. At least one warm-up sweep goes out.
func (o options) warmup() time.Duration { return o.duration() / 20 }

// runWorkload measures one workload: set-up time, a warm-up, one
// closed-loop load phase, verification, end-to-end metrics. With
// --trace 1 it runs the traced protocol instead (runTraced).
func runWorkload(ctx context.Context, w workload, o options, log io.Writer) (*record, error) {
	dirs, err := newStateDirs(o.stateRoot)
	if err != nil {
		return nil, err
	}
	defer dirs.remove()
	ver, err := newVerifier(w, o, log)
	if err != nil {
		return nil, err
	}
	rec := &record{Workload: w.name, Seed: o.seed, Trace: o.trace, Size: o.size, Correct: true, Metrics: map[string]metric{}}
	if o.trace == 1 {
		return rec, runTraced(ctx, w, o, dirs, ver, rec, log)
	}
	setups, err := measureSetup(ctx, o, dirs.root)
	if err != nil {
		return nil, fmt.Errorf("set up: %w", err)
	}
	sys, err := w.deploy(ctx, &deployEnv{dirs: dirs})
	if err != nil {
		return nil, fmt.Errorf("set up: %w", err)
	}
	next := w.sweeps(o)
	warm := drive(ctx, sys, next, o.warmup())
	can, err := startCanary()
	if err != nil {
		sys.stop()
		return nil, fmt.Errorf("start canary: %w", err)
	}
	p := drive(ctx, sys, next, o.duration())
	times, cerr := can.finish()
	sys.stop()
	if cerr != nil {
		return nil, cerr
	}
	rec.tally(ctx, ver, warm, log)
	insts := rec.tally(ctx, ver, p, log)
	canaryMs := median(msOf(times))
	rec.Raw = endToEnd(p, insts, setups)
	rec.Metrics = atCanaryRef(rec.Raw, canaryMs)
	rec.Raw["canary_ms"] = metric{canaryMs, "ms", len(times)}
	return rec, nil
}

// setupProbes is how many child processes measureSetup starts. Set-up
// takes a few milliseconds, so one probe's time swings with whatever
// else the machine does; the median of many is steady.
const setupProbes = 21

// measureSetup times set-up from child start: it starts this binary
// setupProbes times in setup-probe mode, and each child deploys the
// workload's system and reports ready. A probe's time runs from exec
// until the ready line arrives, so it covers process start, package
// initialisation and the deployment — work a change moves into start-up
// shows here.
func measureSetup(ctx context.Context, o options, stateRoot string) ([]float64, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out []float64
	for i := 0; i < setupProbes; i++ {
		cmd := exec.CommandContext(ctx, self, "setup-probe", "--workload", o.workload, "--size", o.size, "--state", stateRoot)
		cmd.Stderr = os.Stderr
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		if err := cmd.Start(); err != nil {
			return nil, err
		}
		line, rerr := bufio.NewReader(stdout).ReadString('\n')
		d := time.Since(t0)
		werr := cmd.Wait()
		if rerr != nil || werr != nil || line != "ready\n" {
			return nil, fmt.Errorf("setup probe: %v", errors.Join(rerr, werr, fmt.Errorf("child printed %q", line)))
		}
		out = append(out, d.Seconds())
	}
	return out, nil
}

// setupProbeMain is the child side of measureSetup: deploy, say ready,
// shut down.
func setupProbeMain(ctx context.Context, w workload, o options, stdout io.Writer) error {
	dirs, err := newStateDirs(o.stateRoot)
	if err != nil {
		return err
	}
	defer dirs.remove()
	sys, err := w.deploy(ctx, &deployEnv{dirs: dirs})
	if err != nil {
		return err
	}
	defer sys.stop()
	_, err = io.WriteString(stdout, "ready\n")
	return err
}

// tally verifies a phase and adds its sweeps to the record: a sweep
// fails when the system returned an error or its result did not verify.
func (r *record) tally(ctx context.Context, ver *verifier, p *phase, log io.Writer) map[string]float64 {
	mismatched, insts := ver.check(ctx, p)
	errored := 0
	for _, sw := range p.sweeps {
		if sw.err != nil {
			if errored < 3 {
				logf(log, "%s: sweep %d failed: %v", ver.w.name, sw.idx, sw.err)
			}
			errored++
		}
	}
	r.Attempted += len(p.sweeps)
	r.Failed += errored + mismatched
	r.Correct = r.Correct && r.Failed == 0
	return insts
}

// atCanaryRef reports the time-based metrics at the canary's reference
// speed: a time is scaled by canaryRef ÷ the canary's median, a rate by
// the inverse. Peak RSS is left as measured.
func atCanaryRef(raw map[string]metric, canaryMs float64) map[string]metric {
	slow := canaryMs / ms(canaryRef) // > 1 when the host ran slower than the reference
	out := make(map[string]metric, len(raw))
	for name, m := range raw {
		switch m.Unit {
		case "s", "ms":
			m.Value /= slow
		case "1/s", "Minst/s":
			m.Value *= slow
		}
		out[name] = m
	}
	return out
}

func msOf(ds []time.Duration) []float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = ms(d)
	}
	return xs
}

// endToEnd computes the metrics a user of the system sees, as measured.
func endToEnd(p *phase, insts map[string]float64, setups []float64) map[string]metric {
	ok := p.ok()
	lat := p.latenciesMs()
	var cells, simInsts float64
	for _, sw := range ok {
		cells += float64(sw.cells)
		simInsts += insts[sw.key]
	}
	wall := p.wall.Seconds()
	nc := int(cells)
	return map[string]metric{
		"setup_s":         {median(setups), "s", len(setups)},
		"sweep_p50_ms":    {quantile(lat, 0.5), "ms", len(lat)},
		"sweeps_per_s":    {float64(len(ok)) / wall, "1/s", len(ok)},
		"cells_per_s":     {cells / wall, "1/s", nc},
		"minst_per_s":     {simInsts / wall / 1e6, "Minst/s", nc},
		"cpu_ms_per_cell": {ratio(ms(p.cpu), cells), "ms", nc},
		"peak_rss_mb":     {float64(p.rssKiB) / 1024, "MiB", 1},
	}
}

// runTraced is the traced protocol: an untraced phase (the baseline
// for tracing overhead), a traced phase with every wrapper wired in,
// then the layer probe. Both phases send the same sweep, are verified
// and last half of --seconds, so the whole run stays within the
// watchdog.
// There is no warm-up: every sweep a deployment serves counts in its
// per-sweep ratios.
func runTraced(ctx context.Context, w workload, o options, dirs *stateDirs, ver *verifier, rec *record, log io.Writer) error {
	runPhase := func(env *deployEnv) (*phase, counters, error) {
		sys, err := w.deploy(ctx, env)
		if err != nil {
			return nil, nil, fmt.Errorf("set up: %w", err)
		}
		before := snapshot()
		p := drive(ctx, sys, w.sweeps(o), o.duration()/2)
		delta := snapshot().minus(before)
		sys.stop()
		rec.tally(ctx, ver, p, log)
		return p, delta, nil
	}
	base, _, err := runPhase(&deployEnv{dirs: dirs})
	if err != nil {
		return err
	}
	tr := newTracer()
	traced, delta, err := runPhase(&deployEnv{dirs: dirs, tr: tr})
	if err != nil {
		return err
	}
	pr, err := runProbe(ctx, traced)
	if err != nil {
		return err
	}
	rec.Metrics = layerMetrics(base, traced, delta, tr, pr)
	path := o.traceOut
	if path == "" {
		path = filepath.Join(o.stateRoot, fmt.Sprintf("trace-%s-seed%d.json", w.name, o.seed))
	}
	if err := tr.writeTimeline(path, traced.ok(), pr.spans); err != nil {
		return fmt.Errorf("write timeline: %w", err)
	}
	logf(log, "wrote timeline %s", path)
	return nil
}

// layerMetrics computes the per-layer metrics of the traced phase. A
// layer the workload's path never touches reads 0.
func layerMetrics(base, traced *phase, d counters, tr *tracer, pr *probeResult) map[string]metric {
	out := map[string]metric{}
	set := func(name, unit string, v float64, n int) { out[name] = metric{Value: v, Unit: unit, N: n} }
	ok := traced.ok()
	sweeps := float64(len(ok))
	var cells float64
	for _, sw := range ok {
		cells += float64(sw.cells)
	}
	perSweep := func(v float64) float64 { return ratio(v, sweeps) }
	medianOf := func(xs []float64) (float64, int) { return median(xs), len(xs) }
	p50 := func(p *phase) float64 { return median(p.latenciesMs()) }

	pr.metrics(set)

	v, n := d.quantile("deesim_cell_duration_seconds", 0.5)
	set("experiments.cell_ms_p50", "ms", v*1e3, n)

	set("superv.journal_syncs_per_cell", "count", ratio(d["deesim_superv_journal_fsyncs_total"], cells), int(cells))
	v, n = medianOf(tr.journalSyncs)
	set("superv.journal_sync_ms_p50", "ms", v, n)

	set("durable.syncs_per_sweep", "count", perSweep(float64(tr.syncs)), tr.syncs)
	set("durable.sync_ms_per_sweep", "ms", perSweep(ms(tr.syncTime)), tr.syncs)
	set("durable.bytes_written_per_sweep", "B", perSweep(float64(tr.bytesWritten)), len(ok))
	set("durable.verified_reads_per_sweep", "count", perSweep(float64(tr.verifiedReads)), tr.verifiedReads)

	frags := tr.fragmentLines()
	set("obs.fragments_per_sweep", "count", perSweep(float64(frags)), frags)

	var submits, slack []float64
	var resultBytes float64
	for _, sw := range ok {
		if sw.jobID == "" {
			continue
		}
		submits = append(submits, ms(sw.submit))
		resultBytes += float64(len(traced.outs.bySpec[sw.key].first))
		if done, ok := tr.resultDone[sw.jobID]; ok {
			slack = append(slack, ms(sw.waitDone.Sub(done)))
		}
	}
	v, n = medianOf(submits)
	set("server.submit_ms_p50", "ms", v, n)
	for _, route := range []string{"submit", "status", "result", "cell"} {
		v, n = medianOf(tr.routeMs[route])
		set("server.http_ms_p50."+route, "ms", v, n)
	}
	set("server.result_bytes", "B", perSweep(resultBytes), len(ok))

	set("client.polls_per_sweep", "count", perSweep(float64(tr.polls)), tr.polls)
	set("client.retries_per_sweep", "count", perSweep(d["deesim_client_retries_total"]), len(ok))
	v, n = medianOf(slack)
	set("client.wait_slack_ms", "ms", v, n)

	var rpc, overhead, tails []float64
	var busy time.Duration
	lastCell := map[*sweep]time.Time{}
	for _, lt := range tr.leases {
		if lt.rpcEnd.IsZero() {
			continue
		}
		rpc = append(rpc, ms(lt.rpcEnd.Sub(lt.rpcStart)))
		if !lt.workEnd.IsZero() {
			work := lt.workEnd.Sub(lt.workStart)
			busy += work
			overhead = append(overhead, ms(lt.rpcEnd.Sub(lt.rpcStart)-work))
		}
		if lt.sw != nil && lt.rpcEnd.After(lastCell[lt.sw]) {
			lastCell[lt.sw] = lt.rpcEnd
		}
	}
	for sw, last := range lastCell {
		if done, ok := tr.resultDone[sw.jobID]; ok {
			tails = append(tails, ms(done.Sub(last)))
		}
	}
	v, n = medianOf(rpc)
	set("coord.lease_rpc_ms_p50", "ms", v, n)
	set("coord.lease_rpc_ms_p90", "ms", quantile(rpc, 0.9), n)
	v, n = medianOf(overhead)
	set("coord.lease_overhead_ms_p50", "ms", v, n)
	workerBusy := 0.0
	if len(rpc) > 0 {
		workerBusy = ratio(busy.Seconds(), fleetWorkers*traced.wall.Seconds())
	}
	set("coord.worker_busy_frac", "ratio", workerBusy, len(overhead))
	set("coord.redispatches_per_sweep", "count", perSweep(d["deesim_coord_redispatches_total"]), len(ok))
	v, n = medianOf(tails)
	set("coord.tail_ms", "ms", v, n)

	lat := base.latenciesMs()
	set("client.sweep_p90_ms", "ms", quantile(lat, 0.9), len(lat))
	set("harness.trace_overhead_frac", "ratio", ratio(p50(traced), p50(base))-1, len(ok))
	set("harness.unattributed_frac", "ratio", tr.unattributedFrac(ok), len(ok))
	return out
}

// counters is a snapshot of the process's metric series (obs.Default,
// which every layer registers on).
type counters map[string]float64

func snapshot() counters {
	c := counters{}
	for _, s := range obs.Default.Snapshot() {
		c[s.Name] = s.Value
	}
	return c
}

func (c counters) minus(before counters) counters {
	d := counters{}
	for k, v := range c {
		d[k] = v - before[k]
	}
	return d
}

// quantile estimates a histogram's q-quantile from its bucket deltas,
// interpolating linearly inside the bucket; it also returns the count.
func (c counters) quantile(base string, q float64) (float64, int) {
	prefix := base + `_bucket{le="`
	type bucket struct{ le, cum float64 }
	var bs []bucket
	for name, v := range c {
		if !strings.HasPrefix(name, prefix) {
			continue
		}
		le, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimPrefix(name, prefix), `"}`), 64)
		if err != nil {
			continue // "+Inf" parses as +Inf; anything else is not a bucket
		}
		bs = append(bs, bucket{le, v})
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	if len(bs) == 0 || bs[len(bs)-1].cum == 0 {
		return 0, 0
	}
	total := bs[len(bs)-1].cum
	target := q * total
	prevLe, prevCum := 0.0, 0.0
	for _, b := range bs {
		if b.cum >= target {
			if math.IsInf(b.le, 1) {
				return prevLe, int(total)
			}
			return prevLe + (b.le-prevLe)*ratio(target-prevCum, b.cum-prevCum), int(total)
		}
		prevLe, prevCum = b.le, b.cum
	}
	return prevLe, int(total)
}
