// Command deesim-coord is the distributed-sweep coordinator: it
// accepts sweep submissions on the same /v1/jobs API deesimd speaks,
// decomposes each sweep into matrix cells, leases the cells across a
// fleet of registered deesimd workers (POST /v1/workers to join), and
// merges the returned results through the exact single-node
// aggregation path — so the merged result file is byte-identical to
// what one deesimd would have produced.
//
// Usage:
//
//	deesim-coord [-addr 127.0.0.1:8525] [-addr-file path] [-state dir]
//	             [-queue N] [-lease-ttl d] [-heartbeat-timeout d]
//	             [-cell-retries N] [-backoff d] [-straggler-factor F]
//	             [-retry-budget N] [-retry-budget-refill F]
//	             [-cell-timeout d] [-request-timeout d] [-drain-grace d]
//	             [-retry-after d] [-log-level info] [-log-json]
//	             [-metrics-out path] [-flight-out path] [-version] [-fsck]
//
// Overload policy: the coordinator runs on deesimd's job host
// (server.Host), so admission is deesimd's: priority lanes (batch
// sweeps queue in a lane half of -queue deep and shed first, once
// interactive occupancy reaches half of -queue), the brownout ladder,
// and low-disk shedding. A sweep past its absolute deadline is refused
// at submission, cancelled mid-run, and never re-dispatched (typed
// "deadline"). -retry-budget caps total cell re-dispatch amplification
// across all sweeps (token bucket refilled at -retry-budget-refill
// tokens/sec; 0 = unlimited, the historical behavior).
//
// Fault tolerance: every lease grant and cell completion is fsync'd to
// a per-sweep journal before it takes effect, so a SIGKILL'd
// coordinator resumes its sweep without re-running finished cells.
// Workers that crash, stall, or partition lose their leases (TTL or
// heartbeat staleness) and their cells re-dispatch elsewhere; straggler
// cells are speculatively duplicated near the end of a sweep, first
// durable completion wins. SIGINT/SIGTERM drains gracefully and
// flushes -metrics-out immediately.
//
// Tracing: GET /v1/trace/<sweep> gathers the sweep's span fragments
// from the coordinator's own log and every registered worker, corrects
// per-worker clock skew against the lease-dispatch timestamps, and
// returns one Perfetto-loadable timeline (deesimctl trace fetch, with
// -server pointed here). The flight recorder defaults into -state and
// is dumped on panic, SIGQUIT, nonzero exit, and continuously, as on
// deesimd.
//
// Logging is deesimd's: one log/slog logger behind -log-level and
// -log-json carries every stderr line. Sweep lifecycle and worker
// registration log at info; lease expiry, stragglers, re-dispatches
// and lost workers at warn, with the sweep, cell, lease and worker ids
// as attributes.
//
// With -fsck the coordinator does not serve: it integrity-checks the
// -state directory and exits, corrupt-kind code if anything is corrupt
// or quarantined.
package main

import (
	"context"
	"flag"
	"io"
	"log/slog"
	"os"
	"time"

	"deesim/internal/budget"
	"deesim/internal/coord"
	"deesim/internal/memo"
	"deesim/internal/obs"
	"deesim/internal/server"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("deesim-coord", flag.ContinueOnError)
	var (
		addrFlag     = fs.String("addr", "127.0.0.1:8525", "listen address (host:port; port 0 picks a free one)")
		addrFileFlag = fs.String("addr-file", "", "write the bound listen address to this file once serving")
		stateFlag    = fs.String("state", "deesim-coord.state", "durable state directory (sweep specs, journals, results)")
		queueFlag    = fs.Int("queue", 8, "interactive admission-queue depth; submissions beyond it are shed with 429 (batch lane and brownout watermark: half of it)")
		leaseTTL     = fs.Duration("lease-ttl", 2*time.Minute, "wall-clock bound per cell lease; expired leases re-dispatch")
		hbTimeout    = fs.Duration("heartbeat-timeout", 15*time.Second, "heartbeat staleness that declares a worker lost")
		cellRetries  = fs.Int("cell-retries", 2, "re-dispatches per cell beyond the first attempt")
		backoffFlag  = fs.Duration("backoff", 250*time.Millisecond, "base re-dispatch backoff per cell")
		stragglerF   = fs.Float64("straggler-factor", 3, "speculate a lease running longer than this multiple of the median cell time (0 disables)")
		retryBudget  = fs.Int("retry-budget", 0, "total cell re-dispatch tokens shared across all sweeps (0 = unlimited)")
		budgetRefill = fs.Float64("retry-budget-refill", 0, "retry-budget refill rate in tokens/sec")
		cellTimeout  = fs.Duration("cell-timeout", 0, "HTTP budget per cell dispatch (0 = lease-ttl + 10s)")
		reqTimeout   = fs.Duration("request-timeout", 10*time.Second, "per-HTTP-request deadline")
		drainGrace   = fs.Duration("drain-grace", 15*time.Second, "how long a drain lets the running sweep finish before canceling")
		retryAfter   = fs.Duration("retry-after", 2*time.Second, "Retry-After hint sent with 429/503")
		memoDir      = fs.String("memo-dir", "", "content-addressed result-cache directory (empty = caching off)")
		memoMem      = fs.Int64("memo-mem", 0, "in-memory result-cache budget in bytes (0 = 64 MiB; effective with -memo-dir)")
		fsckFlag     = fs.Bool("fsck", false, "integrity-check the -state directory and exit (do not serve)")
	)
	return obs.Main("deesim-coord", fs, args, stdout, stderr, func(ctx context.Context, log *slog.Logger) error {
		var bud *budget.Budget
		if *retryBudget > 0 {
			bud = budget.New(*retryBudget, *budgetRefill)
		}
		open := func(frags *obs.FragmentLog) (server.Service, error) {
			var (
				mm  *memo.Memo
				err error
			)
			if *memoDir != "" {
				if mm, err = memo.New(memo.Config{Dir: *memoDir, MemBytes: *memoMem}); err != nil {
					return nil, err
				}
			}
			return coord.New(coord.Config{
				StateDir:         *stateFlag,
				Budget:           bud,
				Memo:             mm,
				QueueDepth:       *queueFlag,
				LeaseTTL:         *leaseTTL,
				HeartbeatTimeout: *hbTimeout,
				CellRetries:      *cellRetries,
				Backoff:          *backoffFlag,
				StragglerFactor:  *stragglerF,
				CellTimeout:      *cellTimeout,
				RequestTimeout:   *reqTimeout,
				DrainGrace:       *drainGrace,
				RetryAfter:       *retryAfter,
				Logger:           log,
				Frags:            frags,
			})
		}
		return server.Serve(ctx, log, stdout, "deesim-coord", server.ServeFlags{
			Addr: *addrFlag, AddrFile: *addrFileFlag, State: *stateFlag, Fsck: *fsckFlag,
		}, open, nil)
	})
}
