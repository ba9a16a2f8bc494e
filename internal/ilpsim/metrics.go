package ilpsim

import "deesim/internal/obs"

// Sim-core telemetry. Counters live on the obs default registry so one
// /metrics (or -metrics-out) exposition covers every simulator run in
// the process, whichever layer triggered it.
//
// Overhead discipline: the event scheduler's per-cycle loop and the
// forward pass's per-instruction loop touch only function-local
// tallies; the shared atomic instruments below are written once per
// RunContext call, in the deferred flush. Every RunContext run, on
// either path, counts in runs, cycles, instructions issued and the
// arena counters. The calendar, cycle-skip, retest and ready-word
// counters and the ready-depth gauge measure event-kernel work: a
// forward-pass run (a closed-form model without a PEs cap) adds
// nothing to them. Unlimited runs and the Oracle count in none. The
// perf-smoke gate (TestCoreSuiteAgainstBaseline in this package's
// core_test.go: BENCH_core.json, 2.2x geomean vs the legacy loop)
// holds the instrumented scheduler to this.
//
// Every counter but the two arena counters is a pure function of the
// cells run: the same cells give the same deltas on any run and any
// machine (TestSimCountersRepeat). The arena counters are not, so a
// gate on counted work must leave them out: an arena comes from the
// runStates sync.Pool, which the garbage collector empties, so how many
// runs find one to reuse (deesim_sim_arena_reuse_total) and how many
// allocate (deesim_sim_arena_alloc_total) depends on when collections
// happen; only their sum, the runs, is fixed.
var (
	mSimRuns       = obs.GetOrCreateCounter("deesim_sim_runs_total")
	mSimCycles     = obs.GetOrCreateCounter("deesim_sim_cycles_total")
	mSimIssued     = obs.GetOrCreateCounter("deesim_sim_instructions_issued_total")
	mSimCalEvents  = obs.GetOrCreateCounter("deesim_sim_calendar_events_total")
	mSimSkips      = obs.GetOrCreateCounter("deesim_sim_cycle_skips_total")
	mSimSkipped    = obs.GetOrCreateCounter("deesim_sim_cycles_skipped_total")
	mSimRetests    = obs.GetOrCreateCounter("deesim_sim_coverage_retests_total")
	mSimReadyWords = obs.GetOrCreateCounter("deesim_sim_ready_words_scanned_total")
	mSimReadyHW    = obs.GetOrCreateGauge("deesim_sim_ready_depth_high_water") // simTally.readyHW
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
	readyWords    int64 // ready-set and summary words the issue scans loaded
	readyHW       int   // most ready instructions one cycle's scan visited (issued, kept or parked)
}

func (t *simTally) flush(cycles int64) {
	mSimRuns.Inc()
	mSimCycles.Add(cycles)
	mSimIssued.Add(t.issued)
	mSimCalEvents.Add(t.calendarEvts)
	mSimSkips.Add(t.cycleSkips)
	mSimSkipped.Add(t.cyclesSkipped)
	mSimRetests.Add(t.retests)
	mSimReadyWords.Add(t.readyWords)
	mSimReadyHW.SetMax(float64(t.readyHW))
}
