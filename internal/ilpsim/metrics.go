package ilpsim

import "deesim/internal/obs"

// Sim-core telemetry. Counters live on the obs default registry so one
// /metrics (or -metrics-out) exposition covers every simulator run in
// the process, whichever layer triggered it.
//
// Overhead discipline: the event scheduler's per-cycle loop touches
// only function-local tallies; the shared atomic instruments below are
// written once per RunContext call, in the deferred flush. The
// perf-smoke gate (BENCH_core.json, 2.2x geomean vs legacy) holds the
// instrumented scheduler to this.
var (
	mSimRuns       = obs.GetOrCreateCounter("deesim_sim_runs_total")
	mSimCycles     = obs.GetOrCreateCounter("deesim_sim_cycles_total")
	mSimIssued     = obs.GetOrCreateCounter("deesim_sim_instructions_issued_total")
	mSimCalEvents  = obs.GetOrCreateCounter("deesim_sim_calendar_events_total")
	mSimSkips      = obs.GetOrCreateCounter("deesim_sim_cycle_skips_total")
	mSimSkipped    = obs.GetOrCreateCounter("deesim_sim_cycles_skipped_total")
	mSimRetests    = obs.GetOrCreateCounter("deesim_sim_coverage_retests_total")
	mSimReadyHW    = obs.GetOrCreateGauge("deesim_sim_ready_depth_high_water")
	mSimArenaReuse = obs.GetOrCreateCounter("deesim_sim_arena_reuse_total")
	mSimArenaAlloc = obs.GetOrCreateCounter("deesim_sim_arena_alloc_total")
)

// simTally is the per-run local accumulator the event scheduler updates
// in its inner loop; flush moves it to the shared instruments in one
// batch of atomic adds when the run ends (normally or not).
type simTally struct {
	issued        int64
	calendarEvts  int64
	cycleSkips    int64
	cyclesSkipped int64
	retests       int64 // coverage tests of ready instructions past the horizon
	readyHW       int
}

func (t *simTally) flush(cycles int64) {
	mSimRuns.Inc()
	mSimCycles.Add(cycles)
	mSimIssued.Add(t.issued)
	mSimCalEvents.Add(t.calendarEvts)
	mSimSkips.Add(t.cycleSkips)
	mSimSkipped.Add(t.cyclesSkipped)
	mSimRetests.Add(t.retests)
	mSimReadyHW.SetMax(float64(t.readyHW))
}
