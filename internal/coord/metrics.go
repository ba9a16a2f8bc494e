package coord

import "deesim/internal/obs"

// coordMetrics bundles the coordinator's fleet instrument handles; the
// sweep admission, lifecycle, integrity and HTTP series belong to the
// job host (server.Host, named deesim_coord_*). Same registry
// discipline as the host: obs.Default in production so /metrics is the
// whole process, a private registry under test so parallel tests do
// not fight over gauges.
type coordMetrics struct {
	workersLive  *obs.Gauge // registered workers with a fresh heartbeat
	leasesActive *obs.Gauge // leases outstanding, fleet-wide
	pendingCells *obs.Gauge // cells waiting for a free slot

	leasesGranted  *obs.Counter
	leaseExpiries  *obs.Counter // TTL or heartbeat-staleness revocations
	redispatches   *obs.Counter // cell retries after expiry/failure
	cellsDone      *obs.Counter
	cellsFailed    *obs.Counter // terminal (non-retryable) cell failures
	dupDiscards    *obs.Counter // identical duplicate completions discarded
	dupConflicts   *obs.Counter // byte-unequal duplicates (sweep poison)
	specLaunches   *obs.Counter // straggler speculation: extra leases
	specWins       *obs.Counter // speculative copy finished first
	heartbeats     *obs.Counter
	workerEvictons *obs.Counter // workers dropped for heartbeat loss
	sweepsResumed  *obs.Counter // journals replayed after a coordinator crash
	mergeChecks    *obs.Counter // merges verified against the journal set

	budgetDenied *obs.Counter // sweeps failed: shared retry budget exhausted
}

func newCoordMetrics(reg *obs.Registry) *coordMetrics {
	if reg == nil {
		reg = obs.Default
	}
	return &coordMetrics{
		workersLive:  reg.GetOrCreateGauge("deesim_coord_workers_live"),
		leasesActive: reg.GetOrCreateGauge("deesim_coord_leases_active"),
		pendingCells: reg.GetOrCreateGauge("deesim_coord_cells_pending"),

		leasesGranted:  reg.GetOrCreateCounter("deesim_coord_leases_granted_total"),
		leaseExpiries:  reg.GetOrCreateCounter("deesim_coord_lease_expiries_total"),
		redispatches:   reg.GetOrCreateCounter("deesim_coord_redispatches_total"),
		cellsDone:      reg.GetOrCreateCounter("deesim_coord_cells_done_total"),
		cellsFailed:    reg.GetOrCreateCounter("deesim_coord_cells_failed_total"),
		dupDiscards:    reg.GetOrCreateCounter("deesim_coord_duplicate_completions_total"),
		dupConflicts:   reg.GetOrCreateCounter("deesim_coord_duplicate_conflicts_total"),
		specLaunches:   reg.GetOrCreateCounter("deesim_coord_straggler_speculations_total"),
		specWins:       reg.GetOrCreateCounter("deesim_coord_straggler_wins_total"),
		heartbeats:     reg.GetOrCreateCounter("deesim_coord_heartbeats_total"),
		workerEvictons: reg.GetOrCreateCounter("deesim_coord_worker_evictions_total"),
		sweepsResumed:  reg.GetOrCreateCounter("deesim_coord_sweeps_resumed_total"),
		mergeChecks:    reg.GetOrCreateCounter("deesim_coord_merge_checks_total"),

		budgetDenied: reg.GetOrCreateCounter("deesim_coord_budget_denied_total"),
	}
}
