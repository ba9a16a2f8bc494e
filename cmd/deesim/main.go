// Command deesim regenerates the paper's evaluation (Figure 5 of
// Uht & Sindagi, MICRO-28 1995): speedup versus branch-path resources for
// the seven constrained ILP models plus the Oracle, on the five SPECint92
// stand-in workloads and their harmonic mean.
//
// Usage:
//
//	deesim [-bench all|name[,name...]] [-resources 8,16,32,64,128,256]
//	       [-models all|csv] [-predictor 2bit|papN|taken] [-scale N]
//	       [-max N] [-penalty N] [-strictmem] [-stats] [-csv]
//	       [-timeout 30s] [-deadlock-limit N]
//	       [-journal run.journal | -resume run.journal] [-jobs N]
//	       [-retries N] [-backoff 500ms]
//	       [-memo-dir path] [-memo-mem bytes]
//	       [-golden results/golden/figure5.json] [-write-golden out.json]
//	       [-figure name]
//	       [-fsck -journal run.journal]
//
// The run is cancellable: SIGINT/SIGTERM or an expired -timeout stops
// the sweep at the next cycle-loop checkpoint, prints whatever workload
// panels completed, and exits non-zero with a structured error naming
// the failing model, ET, benchmark, and cycle.
//
// The sweep is a matrix of (input × model × ET) cells run on a -jobs
// worker pool. A worker that would wait on another worker's build of
// its input builds the next input first, so up to -jobs prepared inputs
// are held at once and memory follows -jobs. Retryable failures
// (deadline, deadlock, panic) are retried -retries times with
// exponential -backoff and deterministic jitter. Panels print in -bench
// order once the sweep ends, so the output does not depend on -jobs or
// on whether a journal is kept.
//
// With -journal, every cell is also recorded to a durable append-only
// journal as it starts and finishes. A killed run restarts with
// -resume: completed cells replay from the journal, only unfinished
// ones re-execute, and the merged tables are byte-identical to an
// uninterrupted run's.
//
// With -golden, the finished sweep is compared against a golden
// baseline snapshot; any speedup drifting beyond the tolerance exits
// non-zero with a regression error naming the model, benchmark, and
// figure. -write-golden records such a snapshot.
//
// With -fsck, no sweep runs: the -journal file is integrity-checked
// (full replay, verifying each record's content digest) and the
// verdict printed; a corrupt journal exits with the corrupt-kind code.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"deesim/internal/bench"
	"deesim/internal/cache"
	"deesim/internal/durable"
	"deesim/internal/experiments"
	"deesim/internal/fsck"
	"deesim/internal/ilpsim"
	"deesim/internal/memo"
	"deesim/internal/obs"
	"deesim/internal/runx"
	"deesim/internal/superv"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

// realMain is main with injectable args and streams, so the journal /
// resume / golden workflows are testable end to end in-process.
func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("deesim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		benchFlag   = fs.String("bench", "all", "workloads to run: all or comma-separated names")
		resFlag     = fs.String("resources", "8,16,32,64,128,256", "comma-separated ET sweep (branch paths; 0 = unlimited, the Lam & Wilson setting)")
		modelsFlag  = fs.String("models", "all", "models: all or comma-separated (e.g. DEE-CD-MF,SP)")
		predFlag    = fs.String("predictor", "2bit", "branch predictor: 2bit, papN, taken")
		scaleFlag   = fs.Int("scale", 0, "workload input scale (0 = default)")
		maxFlag     = fs.Uint64("max", 0, "dynamic instruction cap per input (0 = run to completion)")
		penaltyFlag = fs.Int("penalty", 1, "misprediction restart penalty in cycles")
		strictMem   = fs.Bool("strictmem", false, "serialize loads behind all prior stores (ablation)")
		statsFlag   = fs.Bool("stats", false, "print root-resolution statistics per model")
		csvFlag     = fs.Bool("csv", false, "emit CSV instead of aligned tables")
		pesFlag     = fs.Int("pes", 0, "processing elements issued per cycle (0 = unlimited, the paper's assumption)")
		latFlag     = fs.String("latency", "unit", "instruction latencies: unit (the paper) or realistic")
		cacheFlag   = fs.String("cache", "none", "data cache: none (the paper) or 16k (16KiB 4-way, 10-cycle miss)")
		timeoutFlag = fs.Duration("timeout", 0, "wall-clock limit for the whole run, e.g. 30s or 1m (0 = none)")
		dlFlag      = fs.Int("deadlock-limit", 0, fmt.Sprintf("abort a simulation after this many cycles without progress (0 = default %d)", ilpsim.DefaultDeadlockLimit))

		fsckFlag    = fs.Bool("fsck", false, "integrity-check the -journal file and exit (no sweep runs)")
		journalFlag = fs.String("journal", "", "record the sweep to a crash-safe run journal at this path")
		resumeFlag  = fs.String("resume", "", "resume an interrupted sweep from this journal (re-runs only unfinished cells)")
		jobsFlag    = fs.Int("jobs", 4, "worker-pool size for the sweep's cells; up to this many prepared inputs are held at once, so memory follows -jobs")
		retriesFlag = fs.Int("retries", 2, "retries per cell after the first attempt (retryable failures only)")
		backoffFlag = fs.Duration("backoff", 500*time.Millisecond, "base retry backoff (exponential, deterministic jitter)")
		memoDir     = fs.String("memo-dir", "", "content-addressed result-cache directory: repeated sweeps reuse cached cells (empty = caching off)")
		memoMem     = fs.Int64("memo-mem", 0, "in-memory result-cache budget in bytes (0 = 64 MiB; effective with -memo-dir)")
		goldenFlag  = fs.String("golden", "", "compare the finished sweep against this golden baseline snapshot")
		writeGolden = fs.String("write-golden", "", "write a golden baseline snapshot of the finished sweep to this path")
		figureFlag  = fs.String("figure", "figure5", "figure name recorded in a written golden snapshot")

		traceOut = fs.String("trace-out", "", "write a Chrome trace-event JSON timeline of the sweep to this path (load in chrome://tracing or Perfetto)")
	)
	obsFlags := obs.RegisterCLIFlags(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "deesim:", err)
		code := runx.ExitCode(err)
		obsFlags.DumpFlightOnExit("deesim", code)
		return code
	}
	if _, done, err := obsFlags.Handle("deesim", stdout, stderr); done {
		return 0
	} else if err != nil {
		return fail(err)
	}
	defer func() {
		if err := obsFlags.WriteMetrics(); err != nil {
			fmt.Fprintln(stderr, "deesim:", err)
		}
	}()
	// Flush telemetry at first SIGINT/SIGTERM, not only on clean exit: a
	// second signal (or a kill mid-drain) skips the deferred writers, and
	// an interrupted sweep's metrics and trace are exactly the runs worth
	// examining. The trace file is a no-op without -trace-out.
	tw := &traceFile{path: *traceOut, frags: obs.NewMemFragmentLog("deesim")}
	stopFlush := obsFlags.FlushOnSignal(func() error {
		_, err := tw.write()
		return err
	})
	defer stopFlush()
	defer obsFlags.DumpFlightOnPanic("deesim")
	stopQuit := obsFlags.WatchQuit("deesim")
	defer stopQuit()

	if *fsckFlag {
		if *journalFlag == "" {
			return fail(runx.Newf(runx.KindInvalidInput, "deesim", "-fsck needs -journal <path> to check"))
		}
		r := fsck.JournalReport(nil, *journalFlag)
		r.Render(stdout)
		if err := r.Err(); err != nil {
			return fail(err)
		}
		return 0
	}

	cfg := experiments.Config{
		Scale:     *scaleFlag,
		MaxInstrs: *maxFlag,
		Predictor: *predFlag,
		Opts: ilpsim.Options{
			Penalty:       *penaltyFlag,
			StrictMemory:  *strictMem,
			PEs:           *pesFlag,
			DeadlockLimit: *dlFlag,
		},
	}
	switch *latFlag {
	case "unit":
	case "realistic":
		cfg.Opts.Lat = ilpsim.RealisticLatencies()
	default:
		return fail(fmt.Errorf("unknown latency model %q", *latFlag))
	}
	switch *cacheFlag {
	case "none":
	case "16k":
		c := cache.Default16K()
		cfg.Opts.Cache = &c
	default:
		return fail(fmt.Errorf("unknown cache %q", *cacheFlag))
	}
	var err error
	cfg.Resources, err = parseInts(*resFlag)
	if err != nil {
		return fail(err)
	}
	cfg.Models, err = parseModels(*modelsFlag)
	if err != nil {
		return fail(err)
	}
	ws, err := selectWorkloads(*benchFlag)
	if err != nil {
		return fail(err)
	}
	if *journalFlag != "" && *resumeFlag != "" {
		return fail(fmt.Errorf("-journal and -resume are mutually exclusive (resume appends to the journal it is given)"))
	}
	var mm *memo.Memo
	if *memoDir != "" {
		if mm, err = memo.New(memo.Config{Dir: *memoDir, MemBytes: *memoMem}); err != nil {
			return fail(err)
		}
	}

	ctx, stop := runx.MainContext(*timeoutFlag)
	defer stop()
	if *traceOut != "" {
		ctx = obs.WithFragments(obs.WithTraceContext(ctx, obs.NewTrace()), tw.frags)
		defer func() {
			if n, err := tw.write(); err != nil {
				fmt.Fprintln(stderr, "deesim: write trace:", err)
			} else {
				fmt.Fprintf(stderr, "deesim: wrote %d trace events to %s\n", n, *traceOut)
			}
		}()
	}

	results, err := runSweep(ctx, ws, cfg, sweepOpts{
		journal: *journalFlag, resume: *resumeFlag,
		jobs: *jobsFlag, retries: *retriesFlag, backoff: *backoffFlag,
		memo: mm,
	}, stderr)
	// Every panel that completed, in -bench order, whether or not the
	// sweep failed.
	for _, r := range results {
		fmt.Fprintln(stdout, experiments.Render(r, cfg))
		if *statsFlag && r.Workload != "harmonic-mean" {
			printRootStats(stdout, r, cfg)
		}
		if *csvFlag {
			fmt.Fprintln(stdout, renderCSV(r, cfg))
		}
	}
	if err != nil {
		fmt.Fprintf(stderr, "deesim: %d of %d workloads completed before failure\n", len(results), len(ws))
		return fail(err)
	}

	if *writeGolden != "" {
		g := goldenFromResults(*figureFlag, fs, results, cfg)
		if err := g.Write(*writeGolden); err != nil {
			return fail(fmt.Errorf("write golden %s: %w", *writeGolden, err))
		}
		fmt.Fprintf(stderr, "deesim: wrote golden snapshot %s (%d points)\n", *writeGolden, len(g.Points))
	}
	if *goldenFlag != "" {
		g, err := superv.LoadGolden(*goldenFlag)
		if err != nil {
			return fail(err)
		}
		if err := superv.CompareGolden(g, lookupResults(results), 0); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stderr, "deesim: %d golden cells within tolerance of %s\n", len(g.Points), *goldenFlag)
	}
	return 0
}

type sweepOpts struct {
	journal, resume string
	jobs, retries   int
	backoff         time.Duration
	memo            *memo.Memo
}

// runSweep runs the sweep through experiments.RunMatrixContext,
// creating or resuming the run journal when one is given. Without one
// the sweep runs unjournaled and an interrupted run starts over (or,
// with -memo-dir, replays its finished cells from the memo store).
func runSweep(ctx context.Context, ws []bench.Workload, cfg experiments.Config, o sweepOpts, stderr io.Writer) ([]*experiments.WorkloadResult, error) {
	meta := experiments.MatrixMeta(ws, cfg)
	total := experiments.MatrixTaskCount(ws, cfg)
	var (
		j     *superv.Journal
		prior *superv.State
		path  = o.journal
		err   error
	)
	if o.resume != "" {
		path = o.resume
		j, prior, err = superv.Resume(path, "deesim", meta)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(stderr, "deesim: resuming %s: %s\n", path, prior.Summary(total))
	} else if path != "" {
		if j, err = superv.Create(path, "deesim", meta); err != nil {
			return nil, err
		}
	}
	if j != nil {
		defer j.Close()
	}
	mcfg := experiments.MatrixConfig{
		Jobs:    o.jobs,
		Journal: j,
		Prior:   prior,
		Memo:    o.memo,
		Retry: superv.RetryPolicy{
			Attempts: o.retries + 1,
			Backoff:  o.backoff,
		},
		OnRetry: func(key string, attempt int, delay string, err error) {
			fmt.Fprintf(stderr, "deesim: retrying %s (attempt %d after %s): %v\n", key, attempt, delay, err)
		},
	}
	results, err := experiments.RunMatrixContext(ctx, ws, cfg, mcfg)
	if err != nil {
		// The journal knows exactly what a resumed run will skip.
		if path != "" {
			if st, lerr := superv.Load(path); lerr == nil {
				fmt.Fprintf(stderr, "deesim: journal %s: %s — resume with: deesim -resume %s\n",
					path, st.Summary(total), path)
			}
		}
		return results, err
	}
	return results, nil
}

// lookupResults adapts merged workload results to the golden-compare
// lookup: benchmarks are workload names, including "harmonic-mean".
func lookupResults(rs []*experiments.WorkloadResult) superv.Lookup {
	byName := make(map[string]*experiments.WorkloadResult, len(rs))
	for _, r := range rs {
		byName[r.Workload] = r
	}
	return func(benchmark, model string, et int) (float64, bool) {
		r, ok := byName[benchmark]
		if !ok {
			return 0, false
		}
		v, ok := r.Speedup[model][et]
		return v, ok
	}
}

// goldenFromResults snapshots every (workload, model, ET) cell of a
// finished sweep.
func goldenFromResults(figure string, fs *flag.FlagSet, rs []*experiments.WorkloadResult, cfg experiments.Config) *superv.Golden {
	var cmd strings.Builder
	cmd.WriteString("deesim")
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "write-golden" || f.Name == "golden" || f.Name == "journal" || f.Name == "resume" {
			return
		}
		fmt.Fprintf(&cmd, " -%s %v", f.Name, f.Value)
	})
	g := &superv.Golden{Figure: figure, Version: 1, Tolerance: superv.DefaultGoldenTolerance, Command: cmd.String()}
	for _, r := range rs {
		for _, m := range cfg.Models {
			for _, et := range cfg.Resources {
				g.Points = append(g.Points, superv.GoldenPoint{
					Benchmark: r.Workload, Model: m.String(), ET: et, Speedup: r.Speedup[m.String()][et],
				})
			}
		}
	}
	return g
}

func printRootStats(w io.Writer, r *experiments.WorkloadResult, cfg experiments.Config) {
	fmt.Fprintf(w, "  mispredict resolutions at tree root (%s):\n", r.Workload)
	for _, in := range r.Inputs {
		for _, m := range cfg.Models {
			var parts []string
			for _, et := range cfg.Resources {
				parts = append(parts, fmt.Sprintf("ET%d=%.0f%%", et, 100*in.RootRate[m.String()][et]))
			}
			fmt.Fprintf(w, "    %-12s %-10s %s\n", in.Input, m, strings.Join(parts, " "))
		}
	}
	fmt.Fprintln(w)
}

func renderCSV(r *experiments.WorkloadResult, cfg experiments.Config) string {
	var b strings.Builder
	fmt.Fprintf(&b, "workload,model,resources,speedup\n")
	for _, m := range cfg.Models {
		for _, et := range cfg.Resources {
			fmt.Fprintf(&b, "%s,%s,%d,%.4f\n", r.Workload, m, et, r.Speedup[m.String()][et])
		}
	}
	fmt.Fprintf(&b, "%s,Oracle,,%.4f\n", r.Workload, r.Oracle)
	return b.String()
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		v, err := strconv.Atoi(f)
		if err != nil || v < 0 {
			return nil, fmt.Errorf("bad resource count %q (0 = unlimited)", f)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty resource list")
	}
	return out, nil
}

func parseModels(s string) ([]ilpsim.Model, error) {
	if s == "all" {
		return ilpsim.PaperModels, nil
	}
	var out []ilpsim.Model
	for _, f := range strings.Split(s, ",") {
		if strings.TrimSpace(f) == "" {
			continue
		}
		m, ok := ilpsim.ParseModel(f)
		if !ok {
			var have []string
			for _, m := range slices.Concat(ilpsim.PaperModels, ilpsim.ReferenceModels) {
				have = append(have, m.String())
			}
			return nil, fmt.Errorf("unknown model %q (have: %s; aliases dee-pure, dee-profile)", strings.TrimSpace(f), strings.Join(have, " "))
		}
		out = append(out, m)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty model list")
	}
	return out, nil
}

func selectWorkloads(s string) ([]bench.Workload, error) {
	if s == "all" {
		return bench.All(), nil
	}
	var out []bench.Workload
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		w, err := bench.ByName(f)
		if err != nil {
			return nil, err
		}
		out = append(out, w)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty workload list")
	}
	return out, nil
}

// traceFile renders the sweep's in-memory span fragments to the
// -trace-out path. The first-signal flusher and the exit path may both
// write it; the mutex serializes them and every write goes through a
// temp file renamed over the path, so the file always holds one whole
// document.
type traceFile struct {
	mu    sync.Mutex
	path  string
	frags *obs.FragmentLog
}

// write renders every fragment recorded so far and reports how many.
// A no-op without -trace-out.
func (t *traceFile) write() (int, error) {
	if t.path == "" {
		return 0, nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	frags := t.frags.Fragments()
	tmp, err := durable.TempFile(nil, t.path, "tmp")
	if err != nil {
		return 0, err
	}
	defer os.Remove(tmp.Name()) // no-op after the rename
	err = obs.WriteTimeline(tmp, []obs.Lane{{Name: "deesim", Frags: frags}})
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return 0, err
	}
	return len(frags), os.Rename(tmp.Name(), t.path)
}
