// Command deesimctl is the deesimd client: it submits sweep specs,
// polls job status, and fetches results, retrying retryable failures
// (load shedding, daemon restarts, deadlines) with capped seeded-jitter
// backoff behind a circuit breaker.
//
// Usage:
//
//	deesimctl [-server http://127.0.0.1:8425] [-retries N] [-backoff d]
//	          [-retry-budget N] [-priority class] [-deadline d]
//	          [-timeout d] <command> [args]
//
// Commands:
//
//	submit <spec.json|->   submit a sweep spec (JSON file, or - for stdin);
//	                       prints the accepted job id (with the global
//	                       -wait flag: waits and prints the result instead)
//	status <id>            print one job's status JSON
//	list                   print every job's status JSON
//	result <id>            print a completed job's result tables (JSON)
//	wait <id>              poll until the job completes, then print status
//	health                 probe /healthz and /readyz; exit non-zero if not ready
//	fleet                  print a coordinator's worker registry (point
//	                       -server at deesim-coord)
//	submit-distributed <spec.json|->  submit a sweep to a deesim-coord
//	                       coordinator for fleet execution; identical
//	                       wire shape to submit, spelled separately so
//	                       scripts say what they mean
//	fsck <state-dir>       offline integrity check of a daemon state
//	                       directory (no server needed): verifies every
//	                       artifact's digest, replays journals, lists
//	                       quarantined and stale files; any corrupt or
//	                       quarantined artifact exits with the
//	                       corrupt-kind code
//	memo stats <memo-dir>  print a result-cache store's contents (entry
//	                       count, bytes, quarantined artifacts) as JSON;
//	                       offline, like fsck
//	memo purge <memo-dir>  remove every cache entry and sidecar from a
//	                       result-cache store (quarantined artifacts are
//	                       preserved — purge empties the cache, it never
//	                       destroys corruption evidence)
//	trace fetch <id>       fetch a sweep's merged fleet timeline from a
//	                       coordinator (-server at deesim-coord) as
//	                       Chrome-trace-event JSON on stdout — load it
//	                       in Perfetto (ui.perfetto.dev); validates that
//	                       every span has a nonnegative duration and
//	                       prints a span/lane summary to stderr
//
// Every submit mints a W3C traceparent and sends it with the spec; the
// trace id is echoed on stderr so the sweep's timeline can be fetched
// (trace fetch) or grepped out of fleet logs later.
//
// wait polls adaptively: a healthy daemon is polled at -poll, but
// consecutive failures back the cadence off exponentially — honoring
// any Retry-After the server sends — capped so recovery is still
// noticed promptly. A job that missed its absolute deadline exits with
// the deadline code (4) and names the deadline, so scripts can tell an
// SLO miss from a broken spec.
//
// SLO controls on submit: -priority stamps the spec's priority class
// ("interactive" or "batch"; batch is shed first under brownout), and
// -deadline converts a relative duration (e.g. 30s) to the absolute
// RFC3339 deadline the whole pipeline — server admission, coordinator
// leases, worker cells — enforces. -retry-budget caps the total number
// of retries one deesimctl invocation may issue across all its
// requests (0 = unlimited), so a flapping fleet cannot be hammered by
// its own clients.
//
// Exit codes follow the runx kind contract (internal/runx/cli.go): 0
// success, 2 usage, 10 shed by overload, 11 server unavailable, 4
// deadline, and so on — so scripts can distinguish "retry later" from
// "fix your spec".
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"time"

	"deesim/internal/budget"
	"deesim/internal/client"
	"deesim/internal/fsck"
	"deesim/internal/memo"
	"deesim/internal/obs"
	"deesim/internal/runx"
	"deesim/internal/server"
	"deesim/internal/superv"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

func realMain(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("deesimctl", flag.ContinueOnError)
	var (
		serverFlag  = fs.String("server", "http://127.0.0.1:8425", "deesimd base URL")
		retriesFlag = fs.Int("retries", 3, "retries per request after the first attempt")
		backoffFlag = fs.Duration("backoff", 250*time.Millisecond, "base retry backoff (exponential, seeded jitter; Retry-After raises it)")
		pollFlag    = fs.Duration("poll", 500*time.Millisecond, "status poll interval for wait")
		waitFlag    = fs.Bool("wait", false, "with submit: wait for completion and print the result")
		retryBudget = fs.Int("retry-budget", 0, "total retries this invocation may issue across all requests (0 = unlimited)")
		prioFlag    = fs.String("priority", "", `with submit: stamp the spec's priority class ("interactive" or "batch")`)
		deadlineRel = fs.Duration("deadline", 0, "with submit: absolute deadline this far from now (0 = none)")
	)
	fs.Duration("timeout", 0, "wall-clock limit for the whole command (0 = none)") // obs.Main applies it
	return obs.Main("deesimctl", fs, args, stdout, stderr, func(ctx context.Context, log *slog.Logger) error {
		if fs.NArg() < 1 {
			fs.Usage()
			return fmt.Errorf("missing command (submit, submit-distributed, status, list, result, wait, health, fleet, fsck, memo, trace): %w", flag.ErrHelp)
		}
		c := client.New(*serverFlag)
		c.Retry = superv.RetryPolicy{Attempts: *retriesFlag + 1, Backoff: *backoffFlag}
		c.Logger = log
		if *retryBudget > 0 {
			c.Budget = budget.New(*retryBudget, 0)
		}

		emit := func(v any) error {
			enc := json.NewEncoder(stdout)
			enc.SetIndent("", "  ")
			return enc.Encode(v)
		}
		emitRaw := func(raw []byte) error {
			_, err := stdout.Write(append(raw, '\n'))
			return err
		}
		needArg := func(what string) (string, error) {
			if fs.NArg() < 2 {
				return "", runx.Newf(runx.KindInvalidInput, "deesimctl", "usage: deesimctl %s <%s>", fs.Arg(0), what)
			}
			return fs.Arg(1), nil
		}

		switch cmd := fs.Arg(0); cmd {
		case "submit", "submit-distributed":
			path, err := needArg("spec.json")
			if err != nil {
				return err
			}
			var data []byte
			if path == "-" {
				data, err = io.ReadAll(stdin)
			} else {
				data, err = os.ReadFile(path)
			}
			if err != nil {
				return runx.Newf(runx.KindInvalidInput, "deesimctl", "read spec: %v", err)
			}
			var sp server.Spec
			if err := json.Unmarshal(data, &sp); err != nil {
				return runx.Newf(runx.KindInvalidInput, "deesimctl", "parse spec %s: %v", path, err)
			}
			if *prioFlag != "" {
				sp.Priority = *prioFlag
			}
			if *deadlineRel > 0 {
				// The wire carries an absolute RFC3339 deadline so every hop
				// (server, coordinator, worker cells) enforces the same instant
				// regardless of queueing delay in between.
				sp.Deadline = time.Now().Add(*deadlineRel).UTC().Format(time.RFC3339)
			}
			// Mint the trace here, at the true root of the request: the
			// client injects it as a traceparent header, the daemon persists
			// it into the spec, and every hop downstream joins it.
			tc := obs.NewTrace()
			st, err := c.Submit(obs.WithTraceContext(ctx, tc), sp)
			if err != nil {
				return err
			}
			noun := "job"
			if cmd == "submit-distributed" {
				noun = "sweep"
			}
			log.LogAttrs(ctx, slog.LevelInfo, "accepted", slog.String(noun, st.ID),
				slog.Int("cells", st.CellsTotal), slog.String("trace_id", tc.TraceID))
			if !*waitFlag {
				fmt.Fprintln(stdout, st.ID)
				return nil
			}
			if _, err := c.Wait(ctx, st.ID, *pollFlag); err != nil {
				return err
			}
			raw, err := c.Result(ctx, st.ID)
			if err != nil {
				return err
			}
			return emitRaw(raw)

		case "status":
			id, err := needArg("job-id")
			if err != nil {
				return err
			}
			st, err := c.Status(ctx, id)
			if err != nil {
				return err
			}
			return emit(st)

		case "list":
			sts, err := c.List(ctx)
			if err != nil {
				return err
			}
			return emit(sts)

		case "result":
			id, err := needArg("job-id")
			if err != nil {
				return err
			}
			raw, err := c.Result(ctx, id)
			if err != nil {
				return err
			}
			return emitRaw(raw)

		case "wait":
			id, err := needArg("job-id")
			if err != nil {
				return err
			}
			st, err := c.Wait(ctx, id, *pollFlag)
			if err != nil {
				return err
			}
			return emit(st)

		case "fleet":
			raw, err := c.Fleet(ctx)
			if err != nil {
				return err
			}
			return emitRaw(raw)

		case "fsck":
			// Offline: walks the state directory directly, no daemon involved
			// (run it against a stopped daemon's -state dir).
			dir, err := needArg("state-dir")
			if err != nil {
				return err
			}
			r, err := fsck.Dir(nil, dir)
			if err != nil {
				return err
			}
			r.Render(stdout)
			return r.Err()

		case "memo":
			// Offline like fsck: operates on the store directory directly,
			// so it works against a stopped daemon's -memo-dir.
			if fs.NArg() < 3 {
				return runx.Newf(runx.KindInvalidInput, "deesimctl", "usage: deesimctl memo stats|purge <memo-dir>")
			}
			sub, dir := fs.Arg(1), fs.Arg(2)
			switch sub {
			case "stats":
				st, err := memo.DirStats(nil, dir)
				if err != nil {
					return err
				}
				return emit(st)
			case "purge":
				n, err := memo.PurgeDir(nil, dir)
				if err != nil {
					return err
				}
				fmt.Fprintf(stdout, "purged %d cache entries from %s\n", n, dir)
				return nil
			default:
				return runx.Newf(runx.KindInvalidInput, "deesimctl", "unknown memo subcommand %q (stats, purge)", sub)
			}

		case "trace":
			if fs.NArg() < 3 || fs.Arg(1) != "fetch" {
				return runx.Newf(runx.KindInvalidInput, "deesimctl", "usage: deesimctl trace fetch <sweep-id>")
			}
			id := fs.Arg(2)
			raw, err := c.TraceFetch(ctx, id)
			if err != nil {
				return err
			}
			summary, err := obs.CheckTimeline(raw)
			if err != nil {
				return runx.Newf(runx.KindCorrupt, "deesimctl", "trace %s: %v", id, err)
			}
			log.LogAttrs(ctx, slog.LevelInfo, "trace fetched", slog.String("sweep", id), slog.String("summary", summary))
			return emitRaw(raw)

		case "health":
			if err := c.Healthy(ctx); err != nil {
				return err
			}
			if err := c.Ready(ctx); err != nil {
				return err
			}
			fmt.Fprintln(stdout, "ok")
			return nil

		default:
			return fmt.Errorf("unknown command %q: %w", cmd, flag.ErrHelp)
		}
	})
}
