// Command treeviz regenerates the paper's analytic figures:
//
//	-figure 1   the SP / EE / DEE speculation trees of Figure 1
//	            (p = 0.70, six branch-path resources), with each path's
//	            cumulative probability and resource-assignment order;
//	-figure 2   the static DEE tree of Figure 2 (p = 0.90, ET = 34:
//	            mainline l = 24, DEE region hDEE = 4);
//	-sweep      the static-tree geometry across p and ET (the §3.1
//	            closed forms).
//
// Custom points: treeviz -p 0.85 -et 48 [-strategy greedy|sp|ee|static]
//
// Like the simulator CLIs, treeviz honours -timeout and SIGINT/SIGTERM:
// tree construction runs under a context and a runaway build (huge -et)
// is abandoned with a structured error and a non-zero exit.
// (-deadlock-limit is accepted for CLI uniformity; tree construction
// has no cycle loop to watch.)
package main

import (
	"flag"
	"fmt"
	"os"

	"deesim/internal/dee"
	"deesim/internal/obs"
	"deesim/internal/runx"
	"deesim/internal/stats"
)

func main() {
	var (
		figure   = flag.Int("figure", 0, "paper figure to regenerate (1 or 2)")
		sweep    = flag.Bool("sweep", false, "print static tree geometry sweep")
		p        = flag.Float64("p", 0.9, "branch prediction accuracy")
		et       = flag.Int("et", 34, "branch path resources")
		strategy = flag.String("strategy", "greedy", "tree: greedy, sp, ee, static")
		timeout  = flag.Duration("timeout", 0, "wall-clock limit, e.g. 10s (0 = none)")
		_        = flag.Int("deadlock-limit", 0, "accepted for CLI uniformity; tree construction has no cycle loop")
	)
	obsFlags := obs.RegisterCLIFlags(flag.CommandLine)
	flag.Parse()
	if _, done, err := obsFlags.Handle("treeviz", os.Stdout, os.Stderr); done {
		return
	} else if err != nil {
		fmt.Fprintln(os.Stderr, "treeviz:", err)
		os.Exit(1)
	}
	defer func() {
		if err := obsFlags.WriteMetrics(); err != nil {
			fmt.Fprintln(os.Stderr, "treeviz:", err)
		}
	}()
	stopFlush := obsFlags.FlushOnSignal()
	defer stopFlush()
	defer obsFlags.DumpFlightOnPanic("treeviz")
	stopQuit := obsFlags.WatchQuit("treeviz")
	defer stopQuit()

	ctx, stop := runx.MainContext(*timeout)
	defer stop()

	// The analytic figures are pure computation; run them on a worker
	// goroutine so a signal or deadline still interrupts a huge -et.
	done := make(chan error, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				done <- runx.FromPanic(r, "treeviz")
			}
		}()
		switch {
		case *figure == 1:
			figure1()
		case *figure == 2:
			figure2()
		case *sweep:
			geometrySweep()
		default:
			done <- custom(*strategy, *p, *et)
			return
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			fmt.Fprintln(os.Stderr, "treeviz:", err)
			obsFlags.DumpFlightOnExit("treeviz", 1)
			os.Exit(1)
		}
	case <-ctx.Done():
		fmt.Fprintln(os.Stderr, "treeviz:", runx.CtxErr(ctx, "treeviz"))
		obsFlags.DumpFlightOnExit("treeviz", 1)
		os.Exit(1)
	}
}

func figure1() {
	const p = 0.70
	const et = 6
	fmt.Printf("Figure 1: the three speculative execution strategies (p=%.2f, %d branch path resources)\n\n", p, et)

	fmt.Println("Single Path (SP) — the all-predicted chain:")
	sp := dee.BuildSP(p, et)
	fmt.Println(sp.Summary())
	fmt.Println(sp.Render())

	fmt.Println("Eager Execution (EE) — both sides, complete levels:")
	ee := dee.BuildEE(p, et)
	fmt.Println(ee.Summary())
	fmt.Println(ee.Render())

	fmt.Println("Disjoint Eager Execution (DEE) — greatest marginal benefit:")
	d := dee.BuildGreedy(p, et)
	fmt.Println(d.Summary())
	fmt.Println(d.Render())
	fmt.Println("Note the paper's walk-through: after three mainline paths the next")
	fmt.Println("resource goes to the not-predicted root arc (cp .30) in preference")
	fmt.Println("to the fourth mainline path (cp .24) — path 4 in the figure.")
}

func figure2() {
	const p = 0.90
	const et = 34
	l, h := dee.StaticShape(p, et)
	fmt.Printf("Figure 2: static DEE assignment tree for p=%.2f, ET=%d branch paths\n\n", p, et)
	fmt.Printf("closed forms: log_p(1-p) = %.3f, ET(p,h=%d) = %.2f, l(p,h=%d) = %.2f\n",
		dee.LogP1MP(p), h, dee.StaticET(p, h), h, dee.StaticL(p, h))
	fmt.Printf("shape: mainline l = %d paths, DEE region hDEE = wDEE = %d (triangle of %d side paths)\n\n",
		l, h, h*(h+1)/2)
	tr := dee.BuildStatic(p, et)
	fmt.Println(tr.Summary())
	fmt.Println(tr.Render())
}

func geometrySweep() {
	fmt.Println("Static DEE tree geometry (§3.1 closed forms): mainline l / DEE height h")
	ps := []float64{0.80, 0.85, 0.90, 0.9053, 0.95}
	ets := []int{8, 16, 32, 64, 100, 128, 256}
	cols := make([]string, len(ets))
	for i, e := range ets {
		cols[i] = fmt.Sprintf("ET=%d", e)
	}
	lt := stats.NewTable("", "p", cols)
	lt.SetFormat("%.0f")
	for _, pv := range ps {
		row := fmt.Sprintf("p=%.4f (l)", pv)
		rowH := fmt.Sprintf("p=%.4f (h)", pv)
		for i, e := range ets {
			l, h := dee.StaticShape(pv, e)
			lt.Set(row, i, float64(l))
			lt.Set(rowH, i, float64(h))
		}
	}
	fmt.Println(lt.Render())
	fmt.Println("h = 0 rows are SP-degenerate trees: the reason the paper's Figure 5")
	fmt.Println("curves for DEE and SP coincide at and below 16 branch paths.")
}

func custom(strategy string, p float64, et int) error {
	var tr *dee.Tree
	switch strategy {
	case "greedy":
		tr = dee.BuildGreedy(p, et)
	case "sp":
		tr = dee.BuildSP(p, et)
	case "ee":
		tr = dee.BuildEE(p, et)
	case "static":
		tr = dee.BuildStatic(p, et)
	default:
		return runx.Newf(runx.KindInvalidInput, "treeviz", "unknown strategy %q", strategy)
	}
	fmt.Println(tr.Summary())
	fmt.Println(tr.Render())
	return nil
}
