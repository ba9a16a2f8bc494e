// Command tracegen reports the dynamic-trace characteristics of the
// workloads that the paper's methodology (§5.1, §4.2) relies on: branch
// density, mean branch-path length (≈5 instructions in SPECint92), taken
// rates, loop capture rates for the Levo IQ, and branch predictor
// accuracies (the paper's 2-bit counters averaged 90.53%).
//
// Usage:
//
//	tracegen [-bench all|name,...] [-max N] [-scale N] [-predictors]
//	         [-iq 32,64] [-save dir] [-timeout 30s] [-deadlock-limit N]
//
// SIGINT/SIGTERM or an expired -timeout stops trace capture at the next
// checkpoint; rows completed so far are printed before the non-zero
// exit. (-deadlock-limit is accepted for CLI uniformity; trace capture
// is bounded by -max and the context rather than a cycle watchdog.)
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"deesim/internal/bench"
	"deesim/internal/obs"
	"deesim/internal/predictor"
	"deesim/internal/runx"
	"deesim/internal/stats"
	"deesim/internal/trace"
)

func main() {
	var (
		benchFlag = flag.String("bench", "all", "workloads: all or comma-separated names")
		max       = flag.Uint64("max", 0, "dynamic instruction cap (0 = to completion)")
		scale     = flag.Int("scale", 0, "workload input scale")
		preds     = flag.Bool("predictors", false, "compare predictor accuracies")
		iq        = flag.String("iq", "32,64", "IQ sizes for loop capture rates")
		saveDir   = flag.String("save", "", "directory to write .trace snapshot files into (gzip'd, replayable)")
		timeout   = flag.Duration("timeout", 0, "wall-clock limit for the whole run, e.g. 30s (0 = none)")
		_         = flag.Int("deadlock-limit", 0, "accepted for CLI uniformity; capture is bounded by -max and -timeout")
	)
	obsFlags = obs.RegisterCLIFlags(flag.CommandLine)
	flag.Parse()
	if _, done, err := obsFlags.Handle("tracegen", os.Stdout, os.Stderr); done {
		return
	} else if err != nil {
		fatal(err)
	}
	defer func() {
		if err := obsFlags.WriteMetrics(); err != nil {
			fmt.Fprintln(os.Stderr, "tracegen:", err)
		}
	}()
	stopFlush := obsFlags.FlushOnSignal()
	defer stopFlush()
	defer obsFlags.DumpFlightOnPanic("tracegen")
	stopQuit := obsFlags.WatchQuit("tracegen")
	defer stopQuit()

	ctx, stop := runx.MainContext(*timeout)
	defer stop()
	rowsDone := 0

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
	var iqSizes []int
	for _, f := range strings.Split(*iq, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || v <= 0 {
			fatal(fmt.Errorf("bad IQ size %q", f))
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

	for _, w := range ws {
		for _, in := range w.Inputs {
			prog, err := in.Build(*scale)
			if err != nil {
				fatal(err)
			}
			tr, err := trace.RecordContext(ctx, prog, *max)
			if err != nil {
				if rowsDone > 0 {
					fmt.Printf("partial results (%d inputs completed):\n", rowsDone)
					fmt.Println(t.Render())
				}
				fatal(err)
			}
			if *saveDir != "" {
				path := filepath.Join(*saveDir, w.Name+"_"+in.Name+".trace")
				if err := tr.SaveFile(path); err != nil {
					fatal(err)
				}
				fmt.Printf("wrote %s (%d instructions)\n", path, tr.Len())
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
						fatal(err)
					}
					acc, _ := predictor.Accuracy(tr, p)
					predTable.Set(name, i, 100*acc)
				}
			}
			rowsDone++
		}
	}
	fmt.Println(t.Render())
	if *preds {
		fmt.Println(predTable.Render())
	}
}

// obsFlags is package-level so fatal (which bypasses main's defers via
// os.Exit) can still leave a flight-recorder dump behind.
var obsFlags *obs.CLIFlags

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tracegen:", err)
	if obsFlags != nil {
		obsFlags.DumpFlightOnExit("tracegen", 1)
	}
	os.Exit(1)
}
