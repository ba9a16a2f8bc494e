package experiments

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"deesim/internal/bench"
	"deesim/internal/ilpsim"
	"deesim/internal/isa"
	"deesim/internal/runx"
	"deesim/internal/superv"
)

// matrixTestConfig keeps matrix sweeps fast: two workloads (one with
// espresso's four inputs to exercise multi-input merging), two models,
// two resource levels, short traces.
func matrixTestConfig() Config {
	return Config{
		MaxInstrs: 10_000,
		Resources: []int{8, 64},
		Models:    []ilpsim.Model{ilpsim.ModelSP, ilpsim.ModelDEECDMF},
	}
}

func matrixTestWorkloads(t *testing.T) []bench.Workload {
	t.Helper()
	var ws []bench.Workload
	for _, name := range []string{"xlisp", "espresso"} {
		w, err := bench.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		ws = append(ws, w)
	}
	return ws
}

// renderAll is the aggregate-table byte stream the acceptance criterion
// compares.
func renderAll(rs []*WorkloadResult, cfg Config) string {
	var b strings.Builder
	for _, r := range rs {
		b.WriteString(Render(r, cfg))
		b.WriteByte('\n')
	}
	return b.String()
}

// referenceSweep is the sweep's definition written out sequentially:
// RunCell over every MatrixTasks entry, folded through the same
// aggregation RunMatrixContext uses.
func referenceSweep(t *testing.T, ws []bench.Workload, cfg Config) []*WorkloadResult {
	t.Helper()
	cfg = cfg.withDefaults()
	inputs := map[string]*InputResult{}
	for _, mt := range MatrixTasks(ws, cfg) {
		c, err := RunCell(context.Background(), ws, cfg, mt)
		if err != nil {
			t.Fatal(err)
		}
		ikey := mt.Workload + "/" + mt.Input
		ir := inputs[ikey]
		if ir == nil {
			ir = &InputResult{Input: ikey, Speedup: map[string]map[int]float64{}, RootRate: map[string]map[int]float64{}}
			inputs[ikey] = ir
		}
		ir.Insts, ir.Accuracy, ir.Oracle = c.Insts, c.Accuracy, c.Oracle
		if ir.Speedup[c.Model] == nil {
			ir.Speedup[c.Model], ir.RootRate[c.Model] = map[int]float64{}, map[int]float64{}
		}
		ir.Speedup[c.Model][c.ET], ir.RootRate[c.Model][c.ET] = c.Speedup, c.RootRate
	}
	var out []*WorkloadResult
	for _, w := range ws {
		var irs []*InputResult
		for _, in := range w.Inputs {
			irs = append(irs, inputs[w.Name+"/"+in.Name])
		}
		wr, err := aggregateWorkload(w.Name, irs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, wr)
	}
	hm, err := crossWorkloadMean(out, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return append(out, hm)
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestMatrixMatchesCellReference: the concurrent runner must produce
// exactly the bytes of the sequential cell-by-cell reference, whatever
// the pool size.
func TestMatrixMatchesCellReference(t *testing.T) {
	cfg := matrixTestConfig()
	ws := matrixTestWorkloads(t)
	want := mustJSON(t, referenceSweep(t, ws, cfg))
	for _, jobs := range []int{1, 4} {
		got, err := RunMatrixContext(context.Background(), ws, cfg, MatrixConfig{Jobs: jobs})
		if err != nil {
			t.Fatal(err)
		}
		if g := mustJSON(t, got); g != want {
			t.Errorf("Jobs %d: matrix results differ from the cell reference:\n--- matrix ---\n%s\n--- reference ---\n%s", jobs, g, want)
		}
	}
}

// TestMatrixReleasesFinishedInputs: once an input's last cell has
// merged, the runner must drop its trace and prepared simulator, so a
// sweep's live heap tracks the inputs in flight, not every input seen.
// Six equal inputs run one cell at a time; the live heap measured at
// the last input's cells must stay well under what six retained inputs
// would hold.
func TestMatrixReleasesFinishedInputs(t *testing.T) {
	const inputs = 6
	w := bench.Workload{Name: "big"}
	for i := range inputs {
		w.Inputs = append(w.Inputs, bench.Input{
			Name: "in" + strconv.Itoa(i),
			Build: func(int) (*isa.Program, error) {
				return bench.BuildSynthetic(bench.SyntheticConfig{
					Iterations: 40_000, BranchesPerIter: 2, Bias: 85, Seed: uint32(i + 1), Work: 4,
				})
			},
		})
	}
	cfg := Config{
		MaxInstrs: 400_000,
		Resources: []int{8},
		Models:    []ilpsim.Model{ilpsim.ModelSP, ilpsim.ModelDEECDMF},
	}
	liveHeap := func() int64 {
		// Two collections: the first only moves sync.Pool contents (the
		// simulators' run arenas) to the victim cache; the second frees them.
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	base := liveHeap()
	var first, last int64
	mcfg := MatrixConfig{Jobs: 1}
	mcfg.testCellHook = func(key string) {
		switch {
		case strings.HasPrefix(key, "big/in0|"):
			first = max(first, liveHeap()-base)
		case strings.HasPrefix(key, "big/in"+strconv.Itoa(inputs-1)+"|"):
			last = max(last, liveHeap()-base)
		}
	}
	if _, err := RunMatrixContext(context.Background(), []bench.Workload{w}, cfg, mcfg); err != nil {
		t.Fatal(err)
	}
	t.Logf("live heap above baseline: %d B during the first input, %d B during the last", first, last)
	if first <= 0 || last > 2*first {
		t.Errorf("live heap grew from %d B during the first input to %d B during the last of %d inputs; finished inputs were not released", first, last, inputs)
	}
}

// TestMatrixKillAndResume is the acceptance criterion end to end at the
// harness level: interrupt a journaled sweep partway (context cancel
// mid-run plus a simulated crash that tears the final journal record),
// resume it, verify only unfinished cells re-run, and verify the merged
// old+new aggregate tables are byte-identical to an uninterrupted run.
func TestMatrixKillAndResume(t *testing.T) {
	cfg := matrixTestConfig()
	ws := matrixTestWorkloads(t)
	total := MatrixTaskCount(ws, cfg)

	// Reference: uninterrupted, journal-free run.
	wantTables := renderAll(referenceSweep(t, ws, cfg), cfg)

	// Run 1: journaled, killed after a handful of cells.
	path := filepath.Join(t.TempDir(), "run.journal")
	j, err := superv.Create(path, "deesim", MatrixMeta(ws, cfg))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var cells atomic.Int64
	mcfg := MatrixConfig{Jobs: 2, Journal: j}
	mcfg.testCellHook = func(key string) {
		if cells.Add(1) == 5 {
			cancel()
		}
	}
	_, err = RunMatrixContext(ctx, ws, cfg, mcfg)
	cancel()
	j.Close()
	if !runx.IsKind(err, runx.KindCanceled) {
		t.Fatalf("interrupted run: %v, want KindCanceled", err)
	}

	// Simulate the crash landing mid-journal-write: tear the tail.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}

	// Run 2: resume. Only unfinished cells may execute.
	j2, st, err := superv.Resume(path, "deesim", MatrixMeta(ws, cfg))
	if err != nil {
		t.Fatal(err)
	}
	doneBefore := len(st.Done)
	if doneBefore == 0 || doneBefore >= total {
		t.Fatalf("journal holds %d/%d cells — interruption missed the window", doneBefore, total)
	}
	var mu sync.Mutex
	fresh := map[string]bool{}
	mcfg2 := MatrixConfig{Jobs: 2, Journal: j2, Prior: st}
	mcfg2.testCellHook = func(key string) {
		mu.Lock()
		fresh[key] = true
		mu.Unlock()
	}
	got, err := RunMatrixContext(context.Background(), ws, cfg, mcfg2)
	if err != nil {
		t.Fatal(err)
	}
	j2.Close()

	if len(fresh)+doneBefore != total {
		t.Errorf("resume ran %d cells, journal held %d, matrix has %d", len(fresh), doneBefore, total)
	}
	for key := range st.Done {
		if fresh[key] {
			t.Errorf("journaled-complete cell %s re-executed on resume", key)
		}
	}
	if gotTables := renderAll(got, cfg); gotTables != wantTables {
		t.Errorf("resumed tables differ from uninterrupted run:\n--- resumed ---\n%s\n--- uninterrupted ---\n%s", gotTables, wantTables)
	}
}

func TestConfigValidate(t *testing.T) {
	base := matrixTestConfig()
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"negative-et", func(c *Config) { c.Resources = []int{8, -4} }},
		{"duplicate-et", func(c *Config) { c.Resources = []int{8, 8} }},
		{"duplicate-model", func(c *Config) { c.Models = []ilpsim.Model{ilpsim.ModelSP, ilpsim.ModelSP} }},
		{"negative-scale", func(c *Config) { c.Scale = -1 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			tc.mutate(&cfg)
			err := cfg.withDefaults().Validate()
			if !runx.IsKind(err, runx.KindInvalidInput) {
				t.Errorf("got %v, want KindInvalidInput", err)
			}
		})
	}
	if err := base.withDefaults().Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	// The unlimited sentinel (ET=0) stays legal — it is a documented
	// resource level (the Lam & Wilson setting).
	zero := base
	zero.Resources = []int{0, 100}
	if err := zero.withDefaults().Validate(); err != nil {
		t.Errorf("unlimited sentinel rejected: %v", err)
	}
}

func TestDuplicateWorkloadsRejected(t *testing.T) {
	w, err := bench.ByName("xlisp")
	if err != nil {
		t.Fatal(err)
	}
	_, err = RunMatrixContext(context.Background(), []bench.Workload{w, w}, matrixTestConfig(), MatrixConfig{})
	if !runx.IsKind(err, runx.KindInvalidInput) {
		t.Errorf("RunMatrixContext accepted duplicate workloads: %v", err)
	}
}

// TestMatrixResumeRejectsChangedConfig: a journal recorded under one
// matrix shape must not silently merge into a run with another.
func TestMatrixResumeRejectsChangedConfig(t *testing.T) {
	cfg := matrixTestConfig()
	ws := matrixTestWorkloads(t)
	path := filepath.Join(t.TempDir(), "run.journal")
	j, err := superv.Create(path, "deesim", MatrixMeta(ws, cfg))
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	changed := cfg
	changed.Resources = []int{8, 128}
	if _, _, err := superv.Resume(path, "deesim", MatrixMeta(ws, changed)); !runx.IsKind(err, runx.KindInvalidInput) {
		t.Errorf("changed matrix accepted on resume: %v", err)
	}
}
