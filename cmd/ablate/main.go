// Command ablate runs the ablation studies for the reproduction's design
// choices:
//
//	-study penalty   misprediction restart penalty 0/1/2/4 cycles
//	                 (the paper's Levo penalty is 1, "may be reducible
//	                 to 0")
//	-study memory    perfect memory disambiguation (the paper's minimal
//	                 data dependencies) vs loads serialized behind all
//	                 stores
//	-study designp   static tree sized for the measured accuracy vs
//	                 deliberately mis-sized design points (§3.1 step 1-2:
//	                 "assume all branches are predicted with accuracy p")
//	-study pe        explicit processing-element (issue width) limits
//	                 (future work in §1; §5.1 notes the implicit PE use
//	                 stayed under 200)
//	-study latency   unit (the paper's assumption) vs realistic
//	                 multi-cycle latencies, per model
//	-study cache     unit-latency memory vs a 16 KiB data cache
//	-study tree      static heuristic vs the Theorem-1 greedy tree vs the
//	                 "theoretically perfect" dynamic per-branch tree the
//	                 paper deems impractical (§3)
//	-study all       everything
//
// Usage: ablate [-study all] [-bench xlisp] [-et 64,256] [-max 150000]
//
//	[-timeout 30s] [-deadlock-limit N]
//	[-journal run.journal | -resume run.journal] [-jobs N]
//	[-retries N] [-backoff 500ms]
//	[-memo-dir path] [-memo-mem bytes]
//
// Every study runs as a supervised task on a -jobs worker pool, with
// retryable failures retried -retries times under exponential
// -backoff. Studies print in canonical order once the run ends.
//
// Studies run under a cancellable context: SIGINT/SIGTERM or an expired
// -timeout stops the current simulation at the next checkpoint, the
// studies that completed are printed, and the process exits non-zero
// with a structured error naming the model, ET, and cycle that was
// running.
//
// With -journal, every study's rendered output is also recorded durably
// on completion; a killed run restarts with -resume, replaying finished
// studies from the journal and re-running only the rest.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"strconv"
	"strings"
	"time"

	"deesim/internal/bench"
	"deesim/internal/cache"
	"deesim/internal/dee"
	"deesim/internal/experiments"
	"deesim/internal/ilpsim"
	"deesim/internal/memo"
	"deesim/internal/obs"
	"deesim/internal/predictor"
	"deesim/internal/stats"
	"deesim/internal/superv"
	"deesim/internal/trace"
)

// deadlockLimit is the -deadlock-limit flag value, applied to every
// simulator the studies construct.
var deadlockLimit int

// studyOutput is the JSON payload journaled per completed study.
type studyOutput struct {
	Study  string `json:"study"`
	Output string `json:"output"`
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

// realMain is main with injectable args and streams (testability; see
// cmd/deesim for the same structure).
func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ablate", flag.ContinueOnError)
	var (
		study       = fs.String("study", "all", "penalty, memory, designp, pe, latency, cache, tree, accuracy, or all")
		benchFlag   = fs.String("bench", "xlisp", "workload")
		etFlag      = fs.String("et", "64,256", "resource levels")
		max         = fs.Uint64("max", 150_000, "dynamic instruction cap")
		dlFlag      = fs.Int("deadlock-limit", 0, fmt.Sprintf("abort a simulation after this many cycles without progress (0 = default %d)", ilpsim.DefaultDeadlockLimit))
		journalFlag = fs.String("journal", "", "record completed studies to a crash-safe run journal at this path")
		resumeFlag  = fs.String("resume", "", "resume an interrupted run from this journal (re-runs only unfinished studies)")
		jobsFlag    = fs.Int("jobs", 1, "worker-pool size (studies are independent)")
		retriesFlag = fs.Int("retries", 2, "retries per study after the first attempt (retryable failures only)")
		backoffFlag = fs.Duration("backoff", 500*time.Millisecond, "base retry backoff (exponential, deterministic jitter)")
		memoDir     = fs.String("memo-dir", "", "content-addressed result-cache directory: repeated runs replay cached studies (empty = caching off)")
		memoMem     = fs.Int64("memo-mem", 0, "in-memory result-cache budget in bytes (0 = 64 MiB; effective with -memo-dir)")
	)
	fs.Duration("timeout", 0, "wall-clock limit for the whole run, e.g. 30s (0 = none)") // obs.Main applies it
	return obs.Main("ablate", fs, args, stdout, stderr, func(ctx context.Context, log *slog.Logger) error {
		deadlockLimit = *dlFlag
		studies := []struct {
			name string
			run  func(context.Context, io.Writer, *trace.Trace, []int) error
		}{
			{"penalty", penaltyStudy},
			{"memory", memoryStudy},
			{"designp", designPStudy},
			{"pe", peStudy},
			{"latency", latencyStudy},
			{"cache", cacheStudy},
			{"tree", treeStudy},
			{"accuracy", func(ctx context.Context, w io.Writer, _ *trace.Trace, ets []int) error {
				return accuracyStudy(ctx, w, ets)
			}},
		}
		var selected []int
		for i, st := range studies {
			if *study == st.name || *study == "all" {
				selected = append(selected, i)
			}
		}
		if len(selected) == 0 {
			return fmt.Errorf("unknown study %q", *study)
		}
		// Each study is a supervised task whose payload is its rendered
		// text; with a journal, resume replays finished studies byte for byte.
		j, err := superv.OpenCLIJournal(ctx, log, "ablate", *journalFlag, *resumeFlag, map[string]string{
			"study": *study, "bench": *benchFlag, "et": *etFlag,
			"max": strconv.FormatUint(*max, 10),
		}, len(selected))
		if err != nil {
			return err
		}
		defer j.Close()

		w, err := bench.ByName(*benchFlag)
		if err != nil {
			return err
		}
		prog, err := w.Inputs[0].Build(0)
		if err != nil {
			return err
		}
		tr, err := trace.RecordContext(ctx, prog, *max)
		if err != nil {
			return err
		}
		var ets []int
		for _, f := range strings.Split(*etFlag, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil || v <= 0 {
				return fmt.Errorf("bad ET %q", f)
			}
			ets = append(ets, v)
		}
		fmt.Fprintf(stdout, "workload %s: %d dynamic instructions\n\n", w.Name, tr.Len())

		var mm *memo.Memo
		if *memoDir != "" {
			if mm, err = memo.New(memo.Config{Dir: *memoDir, MemBytes: *memoMem}); err != nil {
				return err
			}
		}
		// Ablation studies do not decompose into matrix cells, so the memo
		// keys them whole: a study's rendered text is a pure function of
		// (study, workload, ET list, instruction cap, deadlock limit) under
		// the same sim-version salt cell keys use.
		etParts := make([]string, len(ets))
		for i, et := range ets {
			etParts[i] = strconv.Itoa(et)
		}
		runStudy := func(ctx context.Context, name string, run func(context.Context, io.Writer, *trace.Trace, []int) error) (string, error) {
			render := func(ctx context.Context) ([]byte, error) {
				var b bytes.Buffer
				if err := run(ctx, &b, tr, ets); err != nil {
					return nil, err
				}
				return b.Bytes(), nil
			}
			if mm == nil {
				data, err := render(ctx)
				return string(data), err
			}
			key := strings.Join([]string{
				"ablate", experiments.MemoSalt,
				"study=" + name,
				"bench=" + w.Name,
				"et=" + strings.Join(etParts, ","),
				"max=" + strconv.FormatUint(*max, 10),
				"deadlock=" + strconv.Itoa(*dlFlag),
			}, "|")
			data, err := mm.Do(ctx, key, render)
			return string(data), err
		}

		var tasks []superv.Task
		outputs := make(map[string]string, len(selected))
		for _, i := range selected {
			st := studies[i]
			tasks = append(tasks, superv.Task{
				Key: "study/" + st.name,
				Run: func(ctx context.Context) (any, error) {
					out, err := runStudy(ctx, st.name, st.run)
					if err != nil {
						return nil, err
					}
					return studyOutput{Study: st.name, Output: out}, nil
				},
			})
		}
		runErr := superv.Run(ctx, tasks, superv.Config{
			Jobs:    *jobsFlag,
			Journal: j.Journal,
			Prior:   j.Prior,
			Retry:   superv.RetryPolicy{Attempts: *retriesFlag + 1, Backoff: *backoffFlag},
			OnDone: func(key string, payload json.RawMessage, replayed bool) {
				var out studyOutput
				if err := json.Unmarshal(payload, &out); err == nil {
					outputs[key] = out.Output
				}
			},
			OnRetry: func(key string, attempt int, delay time.Duration, err error) {
				log.LogAttrs(ctx, slog.LevelWarn, "retrying study",
					slog.String("study", key), slog.Int("attempt", attempt), slog.Duration("delay", delay), slog.Any("err", err))
			},
		})
		// Print whatever completed — journaled and fresh alike — in the
		// canonical study order, so interrupt → resume reprints identically.
		for _, i := range selected {
			if out, ok := outputs["study/"+studies[i].name]; ok {
				io.WriteString(stdout, out)
			}
		}
		if runErr != nil {
			log.LogAttrs(ctx, slog.LevelWarn, "studies completed before failure",
				slog.Int("completed", len(outputs)), slog.Int("total", len(selected)))
			j.LogIncomplete(ctx, log)
		}
		return runErr
	})
}

// newSim builds a simulator with the CLI-wide deadlock limit applied.
func newSim(ctx context.Context, tr *trace.Trace, opts ilpsim.Options) (*ilpsim.Sim, error) {
	if opts.DeadlockLimit == 0 {
		opts.DeadlockLimit = deadlockLimit
	}
	return ilpsim.NewContext(ctx, tr, predictor.NewTwoBit(), opts)
}

// accuracyStudy sweeps branch predictability on the synthetic workload:
// §5.3 — "There is a tradeoff between predictor accuracy and its cost
// versus degree of DEE realization and its cost ... The data suggest
// that some use of DEE is likely to be beneficial, regardless of the
// predictor accuracy."
func accuracyStudy(ctx context.Context, w io.Writer, ets []int) error {
	et := ets[len(ets)-1]
	t := stats.NewTable(
		fmt.Sprintf("Ablation: branch predictability vs DEE benefit (ET=%d)", et),
		"branch bias", []string{"accuracy%", "SP", "DEE-CD-MF", "DEE advantage"})
	for _, bias := range []int{60, 70, 80, 88, 94, 98} {
		prog, err := bench.BuildSynthetic(bench.SyntheticConfig{
			Iterations: 4000, BranchesPerIter: 4, Bias: bias, Seed: uint32(bias), Work: 3,
		})
		if err != nil {
			return err
		}
		tr, err := trace.RecordContext(ctx, prog, 0)
		if err != nil {
			return err
		}
		sim, err := newSim(ctx, tr, ilpsim.Options{Penalty: 1})
		if err != nil {
			return err
		}
		sp, err := sim.RunContext(ctx, ilpsim.ModelSP, et)
		if err != nil {
			return err
		}
		de, err := sim.RunContext(ctx, ilpsim.ModelDEECDMF, et)
		if err != nil {
			return err
		}
		name := fmt.Sprintf("%d%%", bias)
		t.Set(name, 0, 100*sim.Accuracy())
		t.Set(name, 1, sp.Speedup)
		t.Set(name, 2, de.Speedup)
		t.Set(name, 3, de.Speedup/sp.Speedup)
	}
	fmt.Fprintln(w, t.Render())
	fmt.Fprintln(w, "DEE's advantage over plain prediction persists across the whole")
	fmt.Fprintln(w, "predictability range and grows as branches get harder.")
	fmt.Fprintln(w)
	return nil
}

func treeStudy(ctx context.Context, w io.Writer, tr *trace.Trace, ets []int) error {
	t := stats.NewTable("Ablation: DEE tree construction (CD-MF speedup)",
		"tree", cols(ets))
	sim, err := newSim(ctx, tr, ilpsim.Options{Penalty: 1})
	if err != nil {
		return err
	}
	rows := []struct {
		name  string
		model ilpsim.Model
	}{
		{"static heuristic (§3.1)", ilpsim.ModelDEECDMF},
		{"greedy, uniform p (Thm 1)", ilpsim.Model{Strategy: dee.DEEPure, CDMode: ilpsim.CDMF}},
		{"dynamic, per-branch p (§3)", ilpsim.Model{Strategy: dee.DEEProfile, CDMode: ilpsim.CDMF}},
	}
	for _, row := range rows {
		for i, et := range ets {
			r, err := sim.RunContext(ctx, row.model, et)
			if err != nil {
				return err
			}
			t.Set(row.name, i, r.Speedup)
		}
	}
	fmt.Fprintln(w, t.Render())
	fmt.Fprintln(w, "The paper replaced dynamic cp computation with the static heuristic,")
	fmt.Fprintln(w, "arguing the marginal gain would be small and noting (§5.3) that")
	fmt.Fprintln(w, "below-average-accuracy branches would ideally be DEE'd earlier —")
	fmt.Fprintln(w, "the dynamic per-branch tree quantifies exactly that headroom.")
	fmt.Fprintln(w)
	return nil
}

func peStudy(ctx context.Context, w io.Writer, tr *trace.Trace, ets []int) error {
	t := stats.NewTable("Ablation: processing elements per cycle (DEE-CD-MF speedup)",
		"PEs", cols(ets))
	for _, pes := range []int{1, 2, 4, 8, 16, 32, 64, 0} {
		name := fmt.Sprintf("%d", pes)
		if pes == 0 {
			name = "unlimited"
		}
		sim, err := newSim(ctx, tr, ilpsim.Options{Penalty: 1, PEs: pes})
		if err != nil {
			return err
		}
		for i, et := range ets {
			r, err := sim.RunContext(ctx, ilpsim.ModelDEECDMF, et)
			if err != nil {
				return err
			}
			t.Set(name, i, r.Speedup)
		}
	}
	fmt.Fprintln(w, t.Render())
	fmt.Fprintln(w, "Speedups saturate well before the window's theoretical instruction")
	fmt.Fprintln(w, "capacity, matching the paper's note that implicit PE usage was low.")
	fmt.Fprintln(w)
	return nil
}

func latencyStudy(ctx context.Context, w io.Writer, tr *trace.Trace, ets []int) error {
	t := stats.NewTable("Ablation: instruction latencies (speedup at the largest ET)",
		"model", []string{"unit", "realistic", "retained%"})
	et := ets[len(ets)-1]
	for _, m := range []ilpsim.Model{ilpsim.ModelSP, ilpsim.ModelEE, ilpsim.ModelDEE,
		ilpsim.ModelSPCDMF, ilpsim.ModelDEECDMF} {
		unitSim, err := newSim(ctx, tr, ilpsim.Options{Penalty: 1})
		if err != nil {
			return err
		}
		realSim, err := newSim(ctx, tr, ilpsim.Options{Penalty: 1, Lat: ilpsim.RealisticLatencies()})
		if err != nil {
			return err
		}
		ru, err := unitSim.RunContext(ctx, m, et)
		if err != nil {
			return err
		}
		rr, err := realSim.RunContext(ctx, m, et)
		if err != nil {
			return err
		}
		t.Set(m.String(), 0, ru.Speedup)
		t.Set(m.String(), 1, rr.Speedup)
		t.Set(m.String(), 2, 100*rr.Speedup/ru.Speedup)
	}
	fmt.Fprintln(w, t.Render())
	fmt.Fprintln(w, "§5.3: \"It is not yet clear what the net effect of assuming non-unit")
	fmt.Fprintln(w, "latencies on the DEE-CD-MF model will be\" — here is one data point.")
	fmt.Fprintln(w)
	return nil
}

func cacheStudy(ctx context.Context, w io.Writer, tr *trace.Trace, ets []int) error {
	t := stats.NewTable("Ablation: data cache (DEE-CD-MF speedup)",
		"memory", append(cols(ets), "miss%"))
	for _, withCache := range []bool{false, true} {
		name := "unit-latency memory"
		opts := ilpsim.Options{Penalty: 1}
		if withCache {
			name = "16KiB 4-way, 10-cycle miss"
			c := cache.Default16K()
			opts.Cache = &c
		}
		sim, err := newSim(ctx, tr, opts)
		if err != nil {
			return err
		}
		for i, et := range ets {
			r, err := sim.RunContext(ctx, ilpsim.ModelDEECDMF, et)
			if err != nil {
				return err
			}
			t.Set(name, i, r.Speedup)
		}
		t.Set(name, len(ets), 100*sim.CacheMissRate())
	}
	fmt.Fprintln(w, t.Render())
	return nil
}

func cols(ets []int) []string {
	out := make([]string, len(ets))
	for i, et := range ets {
		out[i] = fmt.Sprintf("ET=%d", et)
	}
	return out
}

func penaltyStudy(ctx context.Context, w io.Writer, tr *trace.Trace, ets []int) error {
	t := stats.NewTable("Ablation: misprediction restart penalty (DEE-CD-MF speedup)",
		"penalty", cols(ets))
	for _, pen := range []int{0, 1, 2, 4} {
		sim, err := newSim(ctx, tr, ilpsim.Options{Penalty: pen})
		if err != nil {
			return err
		}
		for i, et := range ets {
			r, err := sim.RunContext(ctx, ilpsim.ModelDEECDMF, et)
			if err != nil {
				return err
			}
			t.Set(fmt.Sprintf("%d cycles", pen), i, r.Speedup)
		}
	}
	fmt.Fprintln(w, t.Render())
	return nil
}

func memoryStudy(ctx context.Context, w io.Writer, tr *trace.Trace, ets []int) error {
	t := stats.NewTable("Ablation: memory disambiguation (DEE-CD-MF speedup; oracle in last column)",
		"memory model", append(cols(ets), "oracle"))
	for _, strict := range []bool{false, true} {
		name := "perfect (minimal deps)"
		if strict {
			name = "none (loads after all stores)"
		}
		sim, err := newSim(ctx, tr, ilpsim.Options{Penalty: 1, StrictMemory: strict})
		if err != nil {
			return err
		}
		for i, et := range ets {
			r, err := sim.RunContext(ctx, ilpsim.ModelDEECDMF, et)
			if err != nil {
				return err
			}
			t.Set(name, i, r.Speedup)
		}
		t.Set(name, len(ets), sim.Oracle().Speedup)
	}
	fmt.Fprintln(w, t.Render())
	return nil
}

func designPStudy(ctx context.Context, w io.Writer, tr *trace.Trace, ets []int) error {
	t := stats.NewTable("Ablation: static-tree design accuracy (DEE-CD-MF speedup; l/h at the largest ET)",
		"design p", append(cols(ets), "l", "h"))
	for _, dp := range []float64{0, 0.70, 0.80, 0.90, 0.95, 0.98} {
		name := fmt.Sprintf("%.2f", dp)
		if dp == 0 {
			name = "measured"
		}
		sim, err := newSim(ctx, tr, ilpsim.Options{Penalty: 1, DesignP: dp})
		if err != nil {
			return err
		}
		var last ilpsim.Result
		for i, et := range ets {
			r, err := sim.RunContext(ctx, ilpsim.ModelDEECDMF, et)
			if err != nil {
				return err
			}
			t.Set(name, i, r.Speedup)
			last = r
		}
		t.Set(name, len(ets), float64(last.TreeML))
		t.Set(name, len(ets)+1, float64(last.TreeH))
	}
	fmt.Fprintln(w, t.Render())
	fmt.Fprintln(w, "A tree designed for too-low p wastes mainline depth on side paths;")
	fmt.Fprintln(w, "one designed for too-high p degenerates toward SP — the paper's")
	fmt.Fprintln(w, "motivation for measuring a characteristic accuracy (§3.1 step 1).")
	return nil
}
