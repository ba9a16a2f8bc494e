package experiments

import (
	"context"
	"testing"

	"deesim/internal/bench"
	"deesim/internal/ilpsim"
	"deesim/internal/runx"
	"deesim/internal/superv"
)

// smokeGoldenPath is the committed capped-sweep baseline; CI's golden
// job regenerates it with the command recorded inside the file.
const smokeGoldenPath = "../../results/golden/smoke.json"

// smokeConfig mirrors the command recorded in smoke.json exactly —
// drift here means either a real simulator regression or a stale
// baseline, and the error's attribution says which cell to look at.
func smokeConfig() Config {
	return Config{
		MaxInstrs: 5_000,
		Resources: []int{8, 64},
		Models:    []ilpsim.Model{ilpsim.ModelSP, ilpsim.ModelDEECDMF},
	}
}

func smokeWorkloads(t *testing.T) []bench.Workload {
	t.Helper()
	var ws []bench.Workload
	for _, name := range []string{"xlisp", "compress"} {
		w, err := bench.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		ws = append(ws, w)
	}
	return ws
}

// lookupResults adapts a sweep's aggregate tables to the golden cell
// lookup (benchmark = workload name, including "harmonic-mean").
func lookupResults(rs []*WorkloadResult) superv.Lookup {
	return func(benchmark, model string, et int) (float64, bool) {
		for _, r := range rs {
			if r.Workload != benchmark {
				continue
			}
			v, ok := r.Speedup[model][et]
			return v, ok
		}
		return 0, false
	}
}

// TestSmokeGoldenGate is the regression gate: a capped deterministic
// sweep must reproduce the committed golden baseline within tolerance.
func TestSmokeGoldenGate(t *testing.T) {
	g, err := superv.LoadGolden(smokeGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := RunMatrixContext(context.Background(), smokeWorkloads(t), smokeConfig(), MatrixConfig{Jobs: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := superv.CompareGolden(g, lookupResults(rs), 0); err != nil {
		t.Errorf("capped sweep drifted from %s: %v", smokeGoldenPath, err)
	}

	// Acceptance criterion: an injected 5% drift in one golden cell must
	// fail with a typed regression naming model, benchmark, and figure.
	drifted := *g
	drifted.Points = append([]superv.GoldenPoint(nil), g.Points...)
	drifted.Points[0].Speedup *= 1.05
	err = superv.CompareGolden(&drifted, lookupResults(rs), 0)
	if !runx.IsKind(err, runx.KindRegression) {
		t.Fatalf("injected 5%% drift not detected: %v", err)
	}
	e, _ := runx.As(err)
	p := drifted.Points[0]
	if e.Model != p.Model || e.Benchmark != p.Benchmark || e.ET != p.ET {
		t.Errorf("regression attribution = %s/%s/ET=%d, want %s/%s/ET=%d",
			e.Benchmark, e.Model, e.ET, p.Benchmark, p.Model, p.ET)
	}
}

// TestFigure5GoldenLoads validates the committed full-figure snapshot's
// schema (the full uncapped sweep itself is CI's golden job, not a unit
// test — it takes minutes).
func TestFigure5GoldenLoads(t *testing.T) {
	g, err := superv.LoadGolden("../../results/golden/figure5.json")
	if err != nil {
		t.Fatal(err)
	}
	if g.Figure != "figure5" {
		t.Errorf("figure = %q", g.Figure)
	}
	// 6 benchmarks (5 workloads + harmonic-mean) × 7 models × 6 ETs.
	if len(g.Points) != 252 {
		t.Errorf("figure5 golden has %d points, want 252", len(g.Points))
	}
}
