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
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"

	"deesim/internal/dee"
	"deesim/internal/obs"
	"deesim/internal/runx"
	"deesim/internal/stats"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

// realMain is main with injectable args and streams, so the CLI is
// testable in-process.
func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("treeviz", flag.ContinueOnError)
	var (
		figure   = fs.Int("figure", 0, "paper figure to regenerate (1 or 2)")
		sweep    = fs.Bool("sweep", false, "print static tree geometry sweep")
		p        = fs.Float64("p", 0.9, "branch prediction accuracy")
		et       = fs.Int("et", 34, "branch path resources")
		strategy = fs.String("strategy", "greedy", "tree: greedy, sp, ee, static")
	)
	fs.Duration("timeout", 0, "wall-clock limit, e.g. 10s (0 = none)") // obs.Main applies it
	return obs.Main("treeviz", fs, args, stdout, stderr, func(ctx context.Context, _ *slog.Logger) error {
		// The analytic figures are pure computation; run them on a worker
		// goroutine so a signal or deadline still interrupts a huge -et.
		// The figure renders into a buffer, so an abandoned build writes
		// nothing to stdout.
		var out bytes.Buffer
		done := make(chan error, 1)
		go func() {
			defer func() {
				if r := recover(); r != nil {
					done <- runx.FromPanic(r, "treeviz")
				}
			}()
			switch {
			case *figure == 1:
				figure1(&out)
			case *figure == 2:
				figure2(&out)
			case *sweep:
				geometrySweep(&out)
			default:
				done <- custom(&out, *strategy, *p, *et)
				return
			}
			done <- nil
		}()
		select {
		case err := <-done:
			if _, werr := stdout.Write(out.Bytes()); err == nil {
				err = werr
			}
			return err
		case <-ctx.Done():
			return runx.CtxErr(ctx, "treeviz")
		}
	})
}

func figure1(w io.Writer) {
	const p = 0.70
	const et = 6
	fmt.Fprintf(w, "Figure 1: the three speculative execution strategies (p=%.2f, %d branch path resources)\n\n", p, et)

	fmt.Fprintln(w, "Single Path (SP) — the all-predicted chain:")
	sp := dee.BuildSP(p, et)
	fmt.Fprintln(w, sp.Summary())
	fmt.Fprintln(w, sp.Render())

	fmt.Fprintln(w, "Eager Execution (EE) — both sides, complete levels:")
	ee := dee.BuildEE(p, et)
	fmt.Fprintln(w, ee.Summary())
	fmt.Fprintln(w, ee.Render())

	fmt.Fprintln(w, "Disjoint Eager Execution (DEE) — greatest marginal benefit:")
	d := dee.BuildGreedy(p, et)
	fmt.Fprintln(w, d.Summary())
	fmt.Fprintln(w, d.Render())
	fmt.Fprintln(w, "Note the paper's walk-through: after three mainline paths the next")
	fmt.Fprintln(w, "resource goes to the not-predicted root arc (cp .30) in preference")
	fmt.Fprintln(w, "to the fourth mainline path (cp .24) — path 4 in the figure.")
}

func figure2(w io.Writer) {
	const p = 0.90
	const et = 34
	l, h := dee.StaticShape(p, et)
	fmt.Fprintf(w, "Figure 2: static DEE assignment tree for p=%.2f, ET=%d branch paths\n\n", p, et)
	fmt.Fprintf(w, "closed forms: log_p(1-p) = %.3f, ET(p,h=%d) = %.2f, l(p,h=%d) = %.2f\n",
		dee.LogP1MP(p), h, dee.StaticET(p, h), h, dee.StaticL(p, h))
	fmt.Fprintf(w, "shape: mainline l = %d paths, DEE region hDEE = wDEE = %d (triangle of %d side paths)\n\n",
		l, h, h*(h+1)/2)
	tr := dee.BuildStatic(p, et)
	fmt.Fprintln(w, tr.Summary())
	fmt.Fprintln(w, tr.Render())
}

func geometrySweep(w io.Writer) {
	fmt.Fprintln(w, "Static DEE tree geometry (§3.1 closed forms): mainline l / DEE height h")
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
	fmt.Fprintln(w, lt.Render())
	fmt.Fprintln(w, "h = 0 rows are SP-degenerate trees: the reason the paper's Figure 5")
	fmt.Fprintln(w, "curves for DEE and SP coincide at and below 16 branch paths.")
}

func custom(w io.Writer, strategy string, p float64, et int) error {
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
	fmt.Fprintln(w, tr.Summary())
	fmt.Fprintln(w, tr.Render())
	return nil
}
