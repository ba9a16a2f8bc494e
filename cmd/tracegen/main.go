// Command tracegen reports the dynamic-trace characteristics of the
// workloads that the paper's methodology (§5.1, §4.2) relies on: branch
// density, mean branch-path length (≈5 instructions in SPECint92), taken
// rates, loop capture rates for the Levo IQ, and branch predictor
// accuracies (the paper's 2-bit counters averaged 90.53%).
//
// Usage:
//
//	tracegen [-bench all|name,...] [-max N] [-scale N] [-predictors]
//	         [-iq 32,64] [-save dir] [-timeout 30s]
//
// SIGINT/SIGTERM or an expired -timeout stops trace capture at the next
// checkpoint; rows completed so far are printed before the non-zero
// exit.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"deesim/internal/bench"
	"deesim/internal/obs"
	"deesim/internal/predictor"
	"deesim/internal/stats"
	"deesim/internal/trace"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

// realMain is main with injectable args and streams, so the CLI is
// testable in-process.
func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tracegen", flag.ContinueOnError)
	var (
		benchFlag = fs.String("bench", "all", "workloads: all or comma-separated names")
		max       = fs.Uint64("max", 0, "dynamic instruction cap (0 = to completion)")
		scale     = fs.Int("scale", 0, "workload input scale")
		preds     = fs.Bool("predictors", false, "compare predictor accuracies")
		iq        = fs.String("iq", "32,64", "IQ sizes for loop capture rates")
		saveDir   = fs.String("save", "", "directory to write .trace snapshot files into (gzip'd, replayable)")
	)
	fs.Duration("timeout", 0, "wall-clock limit for the whole run, e.g. 30s (0 = none)") // obs.Main applies it
	return obs.Main("tracegen", fs, args, stdout, stderr, func(ctx context.Context, _ *slog.Logger) error {
		ws, err := bench.SelectFlag(*benchFlag)
		if err != nil {
			return err
		}
		var iqSizes []int
		for _, f := range strings.Split(*iq, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil || v <= 0 {
				return fmt.Errorf("bad IQ size %q", f)
			}
			iqSizes = append(iqSizes, v)
		}

		cols := []string{"insts", "paths", "density", "path-len", "taken%"}
		for _, s := range iqSizes {
			cols = append(cols, fmt.Sprintf("capture@%d%%", s))
		}
		t := stats.NewTable("Dynamic trace characteristics", "workload/input", cols)
		t.SetFormat("%.2f")

		var predTable *stats.Table
		predNames := []string{"2bit", "pap2", "pap4", "pap8", "taken"}
		if *preds {
			predTable = stats.NewTable("Predictor accuracy (%)", "workload/input", predNames)
			predTable.SetFormat("%.2f")
		}

		rowsDone := 0
		for _, w := range ws {
			for _, in := range w.Inputs {
				prog, err := in.Build(*scale)
				if err != nil {
					return err
				}
				tr, err := trace.RecordContext(ctx, prog, *max)
				if err != nil {
					if rowsDone > 0 {
						fmt.Fprintf(stdout, "partial results (%d inputs completed):\n", rowsDone)
						fmt.Fprintln(stdout, t.Render())
					}
					return err
				}
				if *saveDir != "" {
					path := filepath.Join(*saveDir, w.Name+"_"+in.Name+".trace")
					if err := tr.SaveFile(path); err != nil {
						return err
					}
					fmt.Fprintf(stdout, "wrote %s (%d instructions)\n", path, tr.Len())
				}
				st := tr.ComputeStats()
				name := w.Name + "/" + in.Name
				t.Set(name, 0, float64(st.DynInsts))
				t.Set(name, 1, float64(tr.NumPaths()))
				t.Set(name, 2, st.BranchDensity)
				t.Set(name, 3, st.MeanPathLen)
				t.Set(name, 4, 100*st.TakenRate)
				for i, s := range iqSizes {
					t.Set(name, 5+i, 100*tr.LoopCaptureRate(s))
				}
				if *preds {
					for i, pn := range predNames {
						p, err := predictor.New(pn)
						if err != nil {
							return err
						}
						acc, _ := predictor.Accuracy(tr, p)
						predTable.Set(name, i, 100*acc)
					}
				}
				rowsDone++
			}
		}
		fmt.Fprintln(stdout, t.Render())
		if *preds {
			fmt.Fprintln(stdout, predTable.Render())
		}
		return nil
	})
}
