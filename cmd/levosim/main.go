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
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"

	"deesim/internal/bench"
	"deesim/internal/levo"
	"deesim/internal/obs"
	"deesim/internal/stats"
	"deesim/internal/unroll"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

// realMain is main with injectable args and streams, so the CLI is
// testable in-process.
func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("levosim", flag.ContinueOnError)
	var (
		benchFlag = fs.String("bench", "all", "workloads: all or comma-separated names")
		rows      = fs.Int("rows", 32, "IQ length (static instructions)")
		cols      = fs.Int("cols", 8, "IQ iteration columns")
		deePaths  = fs.Int("dee", 3, "DEE side paths")
		penalty   = fs.Int("penalty", 1, "misprediction restart penalty (cycles)")
		max       = fs.Uint64("max", 300_000, "dynamic instruction cap per input (0 = to completion)")
		scale     = fs.Int("scale", 0, "workload input scale (0 = default)")
		unrollFlg = fs.Bool("unroll", false, "apply the §4.2 machine-code loop-unrolling filter (target 3/4 of the IQ)")
		costFlg   = fs.Bool("cost", false, "print the §4.3 hardware cost estimates and exit")
		dlFlag    = fs.Int("deadlock-limit", 0, "abort a simulation after this many cycles without progress (0 = default 2^22)")
	)
	fs.Duration("timeout", 0, "wall-clock limit for the whole run, e.g. 30s (0 = none)") // obs.Main applies it
	return obs.Main("levosim", fs, args, stdout, stderr, func(ctx context.Context, _ *slog.Logger) error {
		cfg := levo.Config{
			Rows: *rows, Cols: *cols, DEEPaths: *deePaths,
			Penalty: *penalty, MaxInstrs: *max, DeadlockLimit: *dlFlag,
		}
		if *costFlg {
			fmt.Fprintln(stdout, "Hardware cost estimates (§4.3 of the paper):")
			fmt.Fprintln(stdout)
			for _, cc := range []levo.CostConfig{levo.PaperET32(), levo.PaperET100()} {
				fmt.Fprintln(stdout, levo.EstimateCost(cc))
				fmt.Fprintln(stdout)
			}
			fmt.Fprintf(stdout, "marginal 1-column DEE path: %.2fM transistors\n",
				float64(levo.MarginalDEEPathCost(*rows))/1e6)
			return nil
		}
		ws, err := bench.SelectFlag(*benchFlag)
		if err != nil {
			return err
		}

		fmt.Fprintf(stdout, "Levo behavioral model: IQ %dx%d, %d DEE paths, penalty %d\n\n",
			cfg.Rows, cfg.Cols, cfg.DEEPaths, cfg.Penalty)
		t := stats.NewTable("", "workload", []string{
			"insts", "cycles", "IPC", "accuracy%", "reloc", "passes", "DEE-cov%", "mismatch",
		})
		t.SetFormat("%.2f")
		var ipcs []float64
		// partial prints the rows completed before a failure, so a
		// cancelled run still reports what it measured.
		partial := func(err error) error {
			if len(ipcs) > 0 {
				fmt.Fprintf(stdout, "partial results (%d inputs completed):\n", len(ipcs))
				fmt.Fprintln(stdout, t.Render())
			}
			return err
		}
		for _, w := range ws {
			for _, in := range w.Inputs {
				prog, err := in.Build(*scale)
				if err != nil {
					return err
				}
				if *unrollFlg {
					opt := unroll.DefaultOptions()
					opt.TargetSize = 3 * cfg.Rows / 4
					opt.MaxBody = opt.TargetSize / 2
					var rep unroll.Report
					prog, rep, err = unroll.Apply(prog, opt)
					if err != nil {
						return err
					}
					fmt.Fprintf(stdout, "%s/%s: %s\n", w.Name, in.Name, rep)
				}
				m, err := levo.NewContext(ctx, prog, cfg)
				if err != nil {
					return partial(err)
				}
				r, err := m.RunContext(ctx)
				if err != nil {
					return partial(err)
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
		fmt.Fprintln(stdout, t.Render())
		hm, err := stats.HarmonicMean(ipcs)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "harmonic-mean IPC: %.2f\n", hm)
		return nil
	})
}
