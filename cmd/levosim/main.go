// Command levosim runs the behavioral Levo microarchitecture model (§4
// of the paper) on the SPECint92 stand-in workloads and reports IPC,
// window behaviour (loop capture vs linear-code relocations), per-row
// predictor accuracy, and DEE side-path coverage of mispredictions.
//
// Usage:
//
//	levosim [-bench all|name,...] [-rows 32] [-cols 8] [-dee 3]
//	        [-penalty 1] [-max N] [-scale N] [-timeout 30s]
//	        [-deadlock-limit N]
//
// SIGINT/SIGTERM or an expired -timeout stops the run at the next
// cycle-loop checkpoint; rows completed so far are printed and the
// process exits non-zero with the structured error.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"deesim/internal/bench"
	"deesim/internal/levo"
	"deesim/internal/obs"
	"deesim/internal/runx"
	"deesim/internal/stats"
	"deesim/internal/unroll"
)

func main() {
	var (
		benchFlag = flag.String("bench", "all", "workloads: all or comma-separated names")
		rows      = flag.Int("rows", 32, "IQ length (static instructions)")
		cols      = flag.Int("cols", 8, "IQ iteration columns")
		deePaths  = flag.Int("dee", 3, "DEE side paths")
		penalty   = flag.Int("penalty", 1, "misprediction restart penalty (cycles)")
		max       = flag.Uint64("max", 300_000, "dynamic instruction cap per input (0 = to completion)")
		scale     = flag.Int("scale", 0, "workload input scale (0 = default)")
		unrollFlg = flag.Bool("unroll", false, "apply the §4.2 machine-code loop-unrolling filter (target 3/4 of the IQ)")
		costFlg   = flag.Bool("cost", false, "print the §4.3 hardware cost estimates and exit")
		timeout   = flag.Duration("timeout", 0, "wall-clock limit for the whole run, e.g. 30s (0 = none)")
		dlFlag    = flag.Int("deadlock-limit", 0, "abort a simulation after this many cycles without progress (0 = default 2^22)")
	)
	obsFlags = obs.RegisterCLIFlags(flag.CommandLine)
	flag.Parse()
	if _, done, err := obsFlags.Handle("levosim", os.Stdout, os.Stderr); done {
		return
	} else if err != nil {
		fatal(err)
	}
	defer func() {
		if err := obsFlags.WriteMetrics(); err != nil {
			fmt.Fprintln(os.Stderr, "levosim:", err)
		}
	}()
	stopFlush := obsFlags.FlushOnSignal()
	defer stopFlush()
	defer obsFlags.DumpFlightOnPanic("levosim")
	stopQuit := obsFlags.WatchQuit("levosim")
	defer stopQuit()

	cfg := levo.Config{
		Rows: *rows, Cols: *cols, DEEPaths: *deePaths,
		Penalty: *penalty, MaxInstrs: *max, DeadlockLimit: *dlFlag,
	}

	ctx, stop := runx.MainContext(*timeout)
	defer stop()

	if *costFlg {
		fmt.Println("Hardware cost estimates (§4.3 of the paper):")
		fmt.Println()
		for _, cc := range []levo.CostConfig{levo.PaperET32(), levo.PaperET100()} {
			fmt.Println(levo.EstimateCost(cc))
			fmt.Println()
		}
		fmt.Printf("marginal 1-column DEE path: %.2fM transistors\n",
			float64(levo.MarginalDEEPathCost(*rows))/1e6)
		return
	}

	var ws []bench.Workload
	if *benchFlag == "all" {
		ws = bench.All()
	} else {
		for _, f := range strings.Split(*benchFlag, ",") {
			w, err := bench.ByName(strings.TrimSpace(f))
			if err != nil {
				fatal(err)
			}
			ws = append(ws, w)
		}
	}

	fmt.Printf("Levo behavioral model: IQ %dx%d, %d DEE paths, penalty %d\n\n",
		cfg.Rows, cfg.Cols, cfg.DEEPaths, cfg.Penalty)
	t := stats.NewTable("", "workload", []string{
		"insts", "cycles", "IPC", "accuracy%", "reloc", "passes", "DEE-cov%", "mismatch",
	})
	var ipcs []float64
	for _, w := range ws {
		for _, in := range w.Inputs {
			prog, err := in.Build(*scale)
			if err != nil {
				fatal(err)
			}
			if *unrollFlg {
				opt := unroll.DefaultOptions()
				opt.TargetSize = 3 * cfg.Rows / 4
				opt.MaxBody = opt.TargetSize / 2
				var rep unroll.Report
				prog, rep, err = unroll.Apply(prog, opt)
				if err != nil {
					fatal(err)
				}
				fmt.Printf("%s/%s: %s\n", w.Name, in.Name, rep)
			}
			m, err := levo.NewContext(ctx, prog, cfg)
			if err != nil {
				partial(t, ipcs)
				fatal(err)
			}
			r, err := m.RunContext(ctx)
			if err != nil {
				partial(t, ipcs)
				fatal(err)
			}
			name := w.Name + "/" + in.Name
			t.Set(name, 0, float64(r.Insts))
			t.Set(name, 1, float64(r.Cycles))
			t.Set(name, 2, r.IPC)
			t.Set(name, 3, 100*r.Accuracy)
			t.Set(name, 4, float64(r.Relocations))
			t.Set(name, 5, float64(r.Passes))
			cov := 0.0
			if r.Mispredicts > 0 {
				cov = 100 * float64(r.DEECovered) / float64(r.Mispredicts)
			}
			t.Set(name, 6, cov)
			t.Set(name, 7, float64(r.ValueMismatches))
			ipcs = append(ipcs, r.IPC)
		}
	}
	t.SetFormat("%.2f")
	fmt.Println(t.Render())
	hm, err := stats.HarmonicMean(ipcs)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("harmonic-mean IPC: %.2f\n", hm)
}

// partial prints the rows completed before a failure, so a cancelled
// run still reports what it measured.
func partial(t *stats.Table, ipcs []float64) {
	if len(ipcs) == 0 {
		return
	}
	t.SetFormat("%.2f")
	fmt.Printf("partial results (%d inputs completed):\n", len(ipcs))
	fmt.Println(t.Render())
}

// obsFlags is package-level so fatal (which bypasses main's defers via
// os.Exit) can still leave a flight-recorder dump behind.
var obsFlags *obs.CLIFlags

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "levosim:", err)
	if obsFlags != nil {
		obsFlags.DumpFlightOnExit("levosim", 1)
	}
	os.Exit(1)
}
