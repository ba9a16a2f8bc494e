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
	"log/slog"
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
		csvFlag     = fs.Bool("csv", false, "emit only CSV (one header, then every row) instead of aligned tables")
		pesFlag     = fs.Int("pes", 0, "processing elements issued per cycle (0 = unlimited, the paper's assumption)")
		latFlag     = fs.String("latency", "unit", "instruction latencies: unit (the paper) or realistic")
		cacheFlag   = fs.String("cache", "none", "data cache: none (the paper) or 16k (16KiB 4-way, 10-cycle miss)")
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
	fs.Duration("timeout", 0, "wall-clock limit for the whole run, e.g. 30s or 1m (0 = none)") // obs.Main applies it
	return obs.Main("deesim", fs, args, stdout, stderr, func(ctx context.Context, log *slog.Logger) error {
		if *fsckFlag {
			if *journalFlag == "" {
				return runx.Newf(runx.KindInvalidInput, "deesim", "-fsck needs -journal <path> to check")
			}
			r := fsck.JournalReport(nil, *journalFlag)
			r.Render(stdout)
			return r.Err()
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
			return fmt.Errorf("unknown latency model %q", *latFlag)
		}
		switch *cacheFlag {
		case "none":
		case "16k":
			c := cache.Default16K()
			cfg.Opts.Cache = &c
		default:
			return fmt.Errorf("unknown cache %q", *cacheFlag)
		}
		var err error
		if cfg.Resources, err = parseInts(*resFlag); err != nil {
			return err
		}
		if cfg.Models, err = parseModels(*modelsFlag); err != nil {
			return err
		}
		ws, err := bench.SelectFlag(*benchFlag)
		if err != nil {
			return err
		}
		j, err := superv.OpenCLIJournal(ctx, log, "deesim", *journalFlag, *resumeFlag,
			experiments.MatrixMeta(ws, cfg), experiments.MatrixTaskCount(ws, cfg))
		if err != nil {
			return err
		}
		defer j.Close()
		var mm *memo.Memo
		if *memoDir != "" {
			if mm, err = memo.New(memo.Config{Dir: *memoDir, MemBytes: *memoMem}); err != nil {
				return err
			}
		}

		if *traceOut != "" {
			// Write the trace the moment the run is cancelled too: a second
			// signal (or a kill mid-drain) never reaches the exit path, and an
			// interrupted sweep's trace is exactly the one worth examining.
			tw := &traceFile{path: *traceOut, frags: obs.NewMemFragmentLog("deesim")}
			ctx = obs.WithFragments(obs.WithTraceContext(ctx, obs.NewTrace()), tw.frags)
			stop := context.AfterFunc(ctx, func() {
				if _, err := tw.write(); err != nil {
					log.LogAttrs(ctx, slog.LevelWarn, "flush on signal failed", slog.Any("err", err))
				}
			})
			defer func() {
				stop()
				if n, err := tw.write(); err != nil {
					log.LogAttrs(ctx, slog.LevelWarn, "write trace failed", slog.Any("err", err))
				} else {
					log.LogAttrs(ctx, slog.LevelInfo, "wrote trace", slog.Int("events", n), slog.String("path", *traceOut))
				}
			}()
		}

		results, err := experiments.RunMatrixContext(ctx, ws, cfg, experiments.MatrixConfig{
			Jobs:    *jobsFlag,
			Journal: j.Journal,
			Prior:   j.Prior,
			Memo:    mm,
			Retry:   superv.RetryPolicy{Attempts: *retriesFlag + 1, Backoff: *backoffFlag},
			OnRetry: func(key string, attempt int, delay string, err error) {
				log.LogAttrs(ctx, slog.LevelWarn, "retrying cell",
					slog.String("cell", key), slog.Int("attempt", attempt), slog.String("delay", delay), slog.Any("err", err))
			},
		})
		// Every panel that completed, in -bench order, whether or not the
		// sweep failed: aligned tables, or one CSV header and every row.
		if *csvFlag {
			fmt.Fprintln(stdout, "workload,model,resources,speedup")
		}
		for _, r := range results {
			if *csvFlag {
				fmt.Fprint(stdout, renderCSV(r, cfg))
				continue
			}
			fmt.Fprintln(stdout, experiments.Render(r, cfg))
			if *statsFlag && r.Workload != "harmonic-mean" {
				printRootStats(stdout, r, cfg)
			}
		}
		if err != nil {
			log.LogAttrs(ctx, slog.LevelWarn, "workloads completed before failure",
				slog.Int("completed", len(results)), slog.Int("total", len(ws)))
			j.LogIncomplete(ctx, log)
			return err
		}

		if *writeGolden != "" {
			g := goldenFromResults(*figureFlag, fs, results, cfg)
			if err := g.Write(*writeGolden); err != nil {
				return fmt.Errorf("write golden %s: %w", *writeGolden, err)
			}
			log.LogAttrs(ctx, slog.LevelInfo, "wrote golden snapshot", slog.String("path", *writeGolden), slog.Int("points", len(g.Points)))
		}
		if *goldenFlag != "" {
			g, err := superv.LoadGolden(*goldenFlag)
			if err != nil {
				return err
			}
			if err := superv.CompareGolden(g, lookupResults(results), 0); err != nil {
				return err
			}
			log.LogAttrs(ctx, slog.LevelInfo, "golden cells within tolerance", slog.Int("cells", len(g.Points)), slog.String("golden", *goldenFlag))
		}
		return nil
	})
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

// renderCSV returns one workload's CSV rows; -csv prints the header once.
func renderCSV(r *experiments.WorkloadResult, cfg experiments.Config) string {
	var b strings.Builder
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
