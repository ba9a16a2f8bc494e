// Package perf is the benchmark-regression pipeline: it measures the
// ILP core's wall-clock cost per simulation cell (workload × model ×
// ET), records the results as a JSON Suite (BENCH_core.json), renders
// them in benchstat-compatible text, and gates changes against a
// checked-in baseline.
//
// Two metrics are recorded per cell:
//
//   - ns_per_op — wall-clock cost of one RunContext call on this
//     machine. Meaningful for same-machine comparisons (benchstat, the
//     optional strict gate);
//   - speedup_vs_legacy — the event-driven scheduler's wall-clock
//     advantage over the retired scan-every-cycle loop, measured in the
//     same process on the same prepared Sim. Because both sides run on
//     the same hardware in the same run, this ratio is
//     machine-independent and is what the CI gate compares against the
//     checked-in baseline: if the event scheduler loses more than the
//     threshold of its measured advantage, the perf-smoke job fails.
//     The legacy loop is test code of internal/ilpsim, so the caller
//     hands RunCore a Legacy runner; the gate itself runs there.
//
// The sim_speedup field carries the simulated Result.Speedup (the paper
// metric), tying each perf record back to the figure it regenerates.
//
// A suite can also carry ET-scaling records (et_scaling): one model's
// cost at a large ET divided by its cost at a small ET on the same
// prepared Sim, the two runs alternated and the median ratio kept.
// Without a PEs cap the SP, EE and DEE models run as the forward
// constraint pass; the PEs-capped rows (pes 4, SP and DEE-CD-MF) run
// the event kernel. The cost of either should follow events, not
// window size, so the ratio should stay near 1 for models that simulate
// about as many cycles at both ETs, and below it for those whose cycles
// fall as ET grows; Compare fails an SP-family, DEE-CD or DEE-CD-MF ratio
// above maxETScaling, capped or not. Like speedup_vs_legacy it is a
// same-run ratio, so it holds on any machine.
package perf

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"

	"deesim/internal/bench"
	"deesim/internal/ilpsim"
	"deesim/internal/predictor"
	"deesim/internal/runx"
	"deesim/internal/trace"
)

// Schema identifies the Suite JSON layout.
const Schema = "deesim-perf/v1"

// Record is one measured cell.
type Record struct {
	// Name is "core/<workload>/<model>/ET<n>".
	Name string `json:"name"`
	// Iters is the number of timed RunContext calls behind NsPerOp.
	Iters int `json:"iters"`
	// NsPerOp is the mean wall-clock cost of one event-scheduler run.
	NsPerOp float64 `json:"ns_per_op"`
	// SimSpeedup is the simulated Result.Speedup of the cell (the paper
	// metric) — identical across schedulers by the differential tests.
	SimSpeedup float64 `json:"sim_speedup"`
	// SpeedupVsLegacy is legacy ns/op divided by event ns/op, measured
	// in the same run.
	SpeedupVsLegacy float64 `json:"speedup_vs_legacy,omitempty"`
}

// Scaling is one measured ET-scaling cell.
type Scaling struct {
	// Name is "core/<workload>/<model>", with "/PEs<n>" appended on a
	// Sim with a PEs cap of n (PEs).
	Name  string `json:"name"`
	Model string `json:"model"`
	PEs   int    `json:"pes,omitempty"`
	// LoET and HiET are the two ETs compared; LoNs and HiNs their
	// median event-scheduler ns/op over Rounds alternations.
	LoET   int     `json:"lo_et"`
	HiET   int     `json:"hi_et"`
	LoNs   float64 `json:"lo_ns_per_op"`
	HiNs   float64 `json:"hi_ns_per_op"`
	Rounds int     `json:"rounds"`
	// Ratio is the median over rounds of HiET ns / LoET ns.
	Ratio float64 `json:"ratio"`
}

// Suite is the BENCH_core.json document.
type Suite struct {
	Schema    string    `json:"schema"`
	Created   string    `json:"created,omitempty"`
	Go        string    `json:"go,omitempty"`
	TraceCap  int       `json:"trace_cap,omitempty"`
	Records   []Record  `json:"records"`
	ETScaling []Scaling `json:"et_scaling,omitempty"`
}

// GeomeanVsLegacy is the geometric mean of speedup_vs_legacy over the
// records that carry one (0 when none do).
func (s *Suite) GeomeanVsLegacy() float64 {
	sum, n := 0.0, 0
	for _, r := range s.Records {
		if r.SpeedupVsLegacy > 0 {
			sum += math.Log(r.SpeedupVsLegacy)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// record finds a record by name.
func (s *Suite) record(name string) (Record, bool) {
	for _, r := range s.Records {
		if r.Name == name {
			return r, true
		}
	}
	return Record{}, false
}

// WriteFile writes the suite as indented JSON, creating parent
// directories as needed.
func (s *Suite) WriteFile(path string) error {
	if dir := filepath.Dir(path); dir != "." && dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// ReadFile loads a suite and validates its schema tag.
func ReadFile(path string) (*Suite, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Suite
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("perf: parse %s: %w", path, err)
	}
	if s.Schema != Schema {
		return nil, fmt.Errorf("perf: %s has schema %q, want %q", path, s.Schema, Schema)
	}
	return &s, nil
}

// Benchstat renders the suite in `go test -bench` output format, so
// `benchstat old.txt new.txt` works on captured runs. Custom metrics
// ride along the ns/op column as benchstat unit columns.
func (s *Suite) Benchstat(w io.Writer) {
	fmt.Fprintf(w, "goos: %s\ngoarch: %s\n", runtime.GOOS, runtime.GOARCH)
	for _, r := range s.Records {
		name := "Benchmark" + strings.TrimPrefix(r.Name, "core/")
		name = strings.NewReplacer("/", "_", " ", "").Replace(name)
		fmt.Fprintf(w, "%s \t%8d\t%12.0f ns/op\t%8.4f sim_speedup", name, r.Iters, r.NsPerOp, r.SimSpeedup)
		if r.SpeedupVsLegacy > 0 {
			fmt.Fprintf(w, "\t%8.2f speedup_vs_legacy", r.SpeedupVsLegacy)
		}
		fmt.Fprintln(w)
	}
}

// ScalingTable prints the suite's ET-scaling cells, one per line.
func (s *Suite) ScalingTable(w io.Writer) {
	for _, c := range s.ETScaling {
		fmt.Fprintf(w, "et_scaling %-28s ET%d %10.0f ns/op  ET%d %10.0f ns/op  ratio %5.2f\n",
			c.Name, c.LoET, c.LoNs, c.HiET, c.HiNs, c.Ratio)
	}
}

// CompareOpts tunes the regression gate.
type CompareOpts struct {
	// Threshold is the fractional loss that counts as a regression
	// (default 0.20: fail when a cell loses >20% of its baseline
	// speedup_vs_legacy, or — under StrictNs — gains >20% ns/op).
	Threshold float64
	// MinVsLegacy, when positive, additionally requires the current
	// suite's geometric-mean speedup_vs_legacy to be at least this
	// factor (TestCoreSuiteAgainstBaseline sets the floor).
	MinVsLegacy float64
	// StrictNs also gates raw ns/op against the baseline. Only
	// meaningful when baseline and current ran on the same machine;
	// off by default because the checked-in baseline generally did not.
	StrictNs bool
}

// Compare gates cur against base. It returns a *runx.Error of kind
// KindRegression naming every offending cell, or nil when cur holds.
// Cells present in only one suite are ignored (the gate constrains
// shared cells, not suite shape).
func Compare(base, cur *Suite, o CompareOpts) error {
	if o.Threshold <= 0 {
		o.Threshold = 0.20
	}
	var bad []string
	for _, b := range base.Records {
		c, ok := cur.record(b.Name)
		if !ok {
			continue
		}
		if b.SpeedupVsLegacy > 0 && c.SpeedupVsLegacy > 0 &&
			c.SpeedupVsLegacy < b.SpeedupVsLegacy*(1-o.Threshold) {
			bad = append(bad, fmt.Sprintf("%s: speedup_vs_legacy %.2f, baseline %.2f (lost >%d%%)",
				b.Name, c.SpeedupVsLegacy, b.SpeedupVsLegacy, int(o.Threshold*100)))
		}
		if o.StrictNs && b.NsPerOp > 0 && c.NsPerOp > b.NsPerOp*(1+o.Threshold) {
			bad = append(bad, fmt.Sprintf("%s: %.0f ns/op, baseline %.0f (grew >%d%%)",
				b.Name, c.NsPerOp, b.NsPerOp, int(o.Threshold*100)))
		}
	}
	if o.MinVsLegacy > 0 {
		if g := cur.GeomeanVsLegacy(); g > 0 && g < o.MinVsLegacy {
			bad = append(bad, fmt.Sprintf("geomean speedup_vs_legacy %.2f below required %.2f", g, o.MinVsLegacy))
		}
	}
	for _, c := range cur.ETScaling {
		if slices.Contains(scalingGated, c.Model) && c.Ratio > maxETScaling {
			bad = append(bad, fmt.Sprintf("%s: ET%d/ET%d host-time ratio %.2f above %.2f",
				c.Name, c.HiET, c.LoET, c.Ratio, maxETScaling))
		}
	}
	if len(bad) == 0 {
		return nil
	}
	sort.Strings(bad)
	return runx.Newf(runx.KindRegression, "perf.Compare", "%d perf regression(s):\n  %s",
		len(bad), strings.Join(bad, "\n  "))
}

// CoreConfig parameterizes RunCore.
type CoreConfig struct {
	// Workloads to measure (nil = all five paper workloads).
	Workloads []string
	// Models to measure (nil = DEE-CD-MF, SP, EE — the Figure 5 span).
	Models []ilpsim.Model
	// ETs to measure (nil = {8, 64}).
	ETs []int
	// TraceCap bounds the dynamic instruction stream per workload
	// (0 = 60k, matching the bench_test.go harness cap).
	TraceCap int
	// MinTime is the minimum measured wall-clock per (cell, scheduler)
	// side (0 = 100ms); MinIters the minimum timed runs (0 = 3).
	MinTime  time.Duration
	MinIters int
}

// Legacy binds a reference scheduler to one prepared Sim and the trace
// it was prepared from, and returns a runner that simulates one cell on
// it. RunCore times that runner against RunContext for
// speedup_vs_legacy.
type Legacy func(tr *trace.Trace, sim *ilpsim.Sim) func(ctx context.Context, m ilpsim.Model, et int) (ilpsim.Result, error)

// The ET-scaling cells compare the Figure 5 sweep's smallest and
// largest ET, over scalingRounds alternations: the scalingModels on
// each workload's Sim, and the cappedScalingModels on a second Sim of
// the same trace with a PEs cap of scalingPEs, which sends them to the
// event kernel. Compare fails a scalingGated model whose ratio exceeds
// maxETScaling: the SP family simulates about the same cycles at both
// ETs, and DEE-CD and DEE-CD-MF fewer at the larger one, so none of
// them should cost much more there. EE is recorded but not gated.
const (
	scalingLoET   = 8
	scalingHiET   = 256
	scalingRounds = 9
	scalingPEs    = 4
	maxETScaling  = 2.0
)

var (
	scalingModels       = []ilpsim.Model{ilpsim.ModelSP, ilpsim.ModelSPCD, ilpsim.ModelSPCDMF, ilpsim.ModelDEECD, ilpsim.ModelDEECDMF, ilpsim.ModelEE}
	cappedScalingModels = []ilpsim.Model{ilpsim.ModelSP, ilpsim.ModelDEECDMF}
	scalingGated        = []string{ilpsim.ModelSP.String(), ilpsim.ModelSPCD.String(), ilpsim.ModelSPCDMF.String(),
		ilpsim.ModelDEECD.String(), ilpsim.ModelDEECDMF.String()}
)

func (c CoreConfig) withDefaults() CoreConfig {
	if c.Workloads == nil {
		c.Workloads = bench.Names()
	}
	if c.Models == nil {
		c.Models = []ilpsim.Model{ilpsim.ModelDEECDMF, ilpsim.ModelSP, ilpsim.ModelEE}
	}
	if c.ETs == nil {
		c.ETs = []int{8, 64}
	}
	if c.TraceCap == 0 {
		c.TraceCap = 60_000
	}
	if c.MinTime == 0 {
		c.MinTime = 100 * time.Millisecond
	}
	if c.MinIters == 0 {
		c.MinIters = 3
	}
	return c
}

// median returns the median of xs, reordering them.
func median(xs []float64) float64 {
	slices.Sort(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// measure times fn until both MinTime and MinIters are spent, returning
// mean ns/op and the iteration count. One untimed warmup run absorbs
// cold arenas and caches.
func measure(ctx context.Context, cfg CoreConfig, fn func(context.Context) error) (float64, int, error) {
	if err := fn(ctx); err != nil {
		return 0, 0, err
	}
	var (
		elapsed time.Duration
		iters   int
	)
	for elapsed < cfg.MinTime || iters < cfg.MinIters {
		start := time.Now()
		if err := fn(ctx); err != nil {
			return 0, 0, err
		}
		elapsed += time.Since(start)
		iters++
		if err := ctx.Err(); err != nil {
			return 0, 0, runx.CtxErr(ctx, "perf.RunCore")
		}
	}
	return float64(elapsed.Nanoseconds()) / float64(iters), iters, nil
}

// scalingCell is one ET-scaling cell being measured: its Sim and
// model, and the per-round timings so far.
type scalingCell struct {
	workload       string
	sim            *ilpsim.Sim
	m              ilpsim.Model
	pes            int // the Sim's PEs cap
	lo, hi, ratios []float64
}

// measureScaling times every cell at scalingLoET and scalingHiET on its
// Sim, alternating the two, and keeps the medians. Rounds go
// round-robin over the cells, so each cell's rounds spread over the
// whole measurement and a short burst of machine noise lands in at most
// a round or two of any one cell. One untimed run of each warms the
// arena pools.
func measureScaling(ctx context.Context, cells []*scalingCell) ([]Scaling, error) {
	timeRun := func(c *scalingCell, et int) (float64, error) {
		start := time.Now()
		if _, err := c.sim.RunContext(ctx, c.m, et); err != nil {
			return 0, err
		}
		return float64(time.Since(start).Nanoseconds()), nil
	}
	for round := -1; round < scalingRounds; round++ {
		for _, c := range cells {
			lo, err := timeRun(c, scalingLoET)
			if err != nil {
				return nil, err
			}
			hi, err := timeRun(c, scalingHiET)
			if err != nil {
				return nil, err
			}
			if round >= 0 {
				c.lo, c.hi, c.ratios = append(c.lo, lo), append(c.hi, hi), append(c.ratios, hi/lo)
			}
		}
	}
	out := make([]Scaling, len(cells))
	for i, c := range cells {
		name := fmt.Sprintf("core/%s/%s", c.workload, c.m)
		if c.pes > 0 {
			name += fmt.Sprintf("/PEs%d", c.pes)
		}
		out[i] = Scaling{
			Name: name, Model: c.m.String(), PEs: c.pes,
			LoET: scalingLoET, HiET: scalingHiET, LoNs: median(c.lo), HiNs: median(c.hi),
			Rounds: scalingRounds, Ratio: median(c.ratios),
		}
	}
	return out, nil
}

// RunCore measures the ILP core over the configured cells and returns
// the suite. Each cell is timed on RunContext and on the runner legacy
// binds to the same prepared Sim; the scalingModels are then timed at
// scalingLoET and scalingHiET on every workload's Sim, and the
// cappedScalingModels on its PEs-capped twin.
func RunCore(ctx context.Context, cfg CoreConfig, legacy Legacy) (*Suite, error) {
	cfg = cfg.withDefaults()
	suite := &Suite{
		Schema:   Schema,
		Created:  time.Now().UTC().Format(time.RFC3339),
		Go:       runtime.Version(),
		TraceCap: cfg.TraceCap,
	}
	var scaling []*scalingCell
	for _, name := range cfg.Workloads {
		w, err := bench.ByName(name)
		if err != nil {
			return nil, err
		}
		prog, err := w.Inputs[0].Build(1)
		if err != nil {
			return nil, fmt.Errorf("perf: build %s: %w", name, err)
		}
		tr, err := trace.Record(prog, uint64(cfg.TraceCap))
		if err != nil {
			return nil, fmt.Errorf("perf: trace %s: %w", name, err)
		}
		sim, err := ilpsim.NewContext(ctx, tr, predictor.NewTwoBit(), ilpsim.DefaultOptions())
		if err != nil {
			return nil, err
		}
		runLegacy := legacy(tr, sim)
		for _, m := range cfg.Models {
			for _, et := range cfg.ETs {
				var res ilpsim.Result
				eventNs, iters, err := measure(ctx, cfg, func(ctx context.Context) error {
					r, err := sim.RunContext(ctx, m, et)
					res = r
					return err
				})
				if err != nil {
					return nil, err
				}
				rec := Record{
					Name:       fmt.Sprintf("core/%s/%s/ET%d", name, m, et),
					Iters:      iters,
					NsPerOp:    eventNs,
					SimSpeedup: res.Speedup,
				}
				legacyNs, _, err := measure(ctx, cfg, func(ctx context.Context) error {
					_, err := runLegacy(ctx, m, et)
					return err
				})
				if err != nil {
					return nil, err
				}
				rec.SpeedupVsLegacy = legacyNs / eventNs
				suite.Records = append(suite.Records, rec)
			}
		}
		for _, m := range scalingModels {
			scaling = append(scaling, &scalingCell{workload: name, sim: sim, m: m})
		}
		opts := ilpsim.DefaultOptions()
		opts.PEs = scalingPEs
		capped, err := ilpsim.NewContext(ctx, tr, predictor.NewTwoBit(), opts)
		if err != nil {
			return nil, err
		}
		for _, m := range cappedScalingModels {
			scaling = append(scaling, &scalingCell{workload: name, sim: capped, m: m, pes: scalingPEs})
		}
	}
	// Collect the legacy runs' garbage first, so that no collection
	// (which also empties the Sims' arena pools) lands mid-phase.
	runtime.GC()
	sc, err := measureScaling(ctx, scaling)
	if err != nil {
		return nil, err
	}
	suite.ETScaling = sc
	return suite, nil
}
