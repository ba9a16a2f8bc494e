// Package experiments is the harness that regenerates the paper's
// evaluation (Figure 5 and the §5.3 in-text numbers): it builds the
// workloads, records traces, runs every ILP model across the resource
// sweep, and aggregates per-workload and harmonic-mean results.
package experiments

import (
	"context"
	"fmt"

	"deesim/internal/bench"
	"deesim/internal/ilpsim"
	"deesim/internal/isa"
	"deesim/internal/predictor"
	"deesim/internal/runx"
	"deesim/internal/stats"
)

// PaperResources is the Figure 5 horizontal axis.
var PaperResources = []int{8, 16, 32, 64, 128, 256}

// Config parameterizes a run.
type Config struct {
	// Scale is the workload input-size multiplier (0 = default).
	Scale int
	// MaxInstrs caps the dynamic trace per input (0 = to completion;
	// the paper capped at 100M).
	MaxInstrs uint64
	// Resources is the ET sweep (defaults to PaperResources).
	Resources []int
	// Models to simulate (defaults to ilpsim.PaperModels).
	Models []ilpsim.Model
	// Predictor names the run-time predictor ("2bit", "papN", "taken");
	// defaults to the paper's "2bit".
	Predictor string
	// Opts are passed to the simulator.
	Opts ilpsim.Options
	// OnResult, if non-nil, observes each workload result as soon as
	// its last cell merges, in completion order — a hook for reacting
	// to progress mid-sweep (the returned results are the ordered,
	// complete record). Calls are serialized by RunMatrixContext (every
	// invocation runs under its merge mutex), so implementations may
	// touch shared state without locking; they must not call back into
	// the harness.
	OnResult func(*WorkloadResult)
}

// Validate rejects configurations that would corrupt a sweep rather
// than fail it cleanly: negative resource levels (0 stays legal — it is
// the documented Lam & Wilson "unlimited" sentinel), duplicate resource
// levels, and duplicate model names. Duplicates matter beyond
// aesthetics: a (workload, model, ET) triple is a journal task key, so
// a duplicated entry would collide in the run journal and double-count
// in harmonic means. Returns a typed *runx.Error of KindInvalidInput.
func (c Config) Validate() error {
	const stage = "experiments.Config"
	if c.Scale < 0 {
		return runx.Newf(runx.KindInvalidInput, stage, "negative workload scale %d", c.Scale)
	}
	seenET := make(map[int]bool, len(c.Resources))
	for _, et := range c.Resources {
		if et < 0 {
			return runx.Newf(runx.KindInvalidInput, stage, "negative resource level %d (0 = unlimited)", et)
		}
		if seenET[et] {
			return runx.Newf(runx.KindInvalidInput, stage, "duplicate resource level %d (would collide as a journal task key)", et)
		}
		seenET[et] = true
	}
	seenM := make(map[string]bool, len(c.Models))
	for _, m := range c.Models {
		if seenM[m.String()] {
			return runx.Newf(runx.KindInvalidInput, stage, "duplicate model %s (would collide as a journal task key)", m)
		}
		seenM[m.String()] = true
	}
	return nil
}

// validateWorkloads rejects workload sets whose names (or per-workload
// input names) collide — they would alias each other's journal records
// and merge results incorrectly.
func validateWorkloads(ws []bench.Workload) error {
	const stage = "experiments.Workloads"
	seen := make(map[string]bool, len(ws))
	for _, w := range ws {
		if w.Name == "" {
			return runx.Newf(runx.KindInvalidInput, stage, "workload with empty name")
		}
		if seen[w.Name] {
			return runx.Newf(runx.KindInvalidInput, stage, "duplicate workload name %q (journal task keys would collide)", w.Name)
		}
		seen[w.Name] = true
		ins := make(map[string]bool, len(w.Inputs))
		for _, in := range w.Inputs {
			if ins[in.Name] {
				return runx.Newf(runx.KindInvalidInput, stage, "workload %q has duplicate input %q", w.Name, in.Name)
			}
			ins[in.Name] = true
		}
	}
	return nil
}

func (c Config) withDefaults() Config {
	if len(c.Resources) == 0 {
		c.Resources = PaperResources
	}
	if len(c.Models) == 0 {
		c.Models = ilpsim.PaperModels
	}
	if c.Predictor == "" {
		c.Predictor = "2bit"
	}
	if c.Opts == (ilpsim.Options{}) {
		c.Opts = ilpsim.DefaultOptions()
	}
	return c
}

// InputResult holds one input's simulations.
type InputResult struct {
	Input    string
	Insts    int
	Accuracy float64
	Oracle   float64
	// Speedup[model][ET].
	Speedup map[string]map[int]float64
	// RootRate[model][ET] is the fraction of mispredicts resolved at the
	// tree root.
	RootRate map[string]map[int]float64
}

// WorkloadResult aggregates a workload over its inputs by harmonic mean
// (the paper's treatment of espresso's four inputs).
type WorkloadResult struct {
	Workload string
	Inputs   []*InputResult

	Accuracy float64 // mean accuracy over inputs
	Oracle   float64 // harmonic mean of input oracles
	Speedup  map[string]map[int]float64
}

type buildable = func(scale int) (*isa.Program, error)

// buildInputSim builds an input's program and prepares its simulator
// straight from the recorded instruction stream (ilpsim.RecordContext).
func buildInputSim(ctx context.Context, name string, prog buildable, cfg Config) (*ilpsim.Sim, error) {
	p, err := prog(cfg.Scale)
	if err != nil {
		return nil, fmt.Errorf("build %s: %w", name, err)
	}
	pred, err := predictor.New(cfg.Predictor)
	if err != nil {
		return nil, err
	}
	sim, err := ilpsim.RecordContext(ctx, p, cfg.MaxInstrs, pred, cfg.Opts)
	if err != nil {
		return nil, runx.Annotate(err, name)
	}
	return sim, nil
}

// aggregateWorkload folds per-input results into a workload datum: the
// harmonic mean over inputs per model×ET (the paper's treatment of
// espresso's four inputs), mean accuracy, and harmonic-mean oracle.
// Fresh and journal-replayed cells aggregate through this one function,
// so a resumed run's merged old+new results are bit-identical to an
// uninterrupted run's.
func aggregateWorkload(name string, inputs []*InputResult, cfg Config) (*WorkloadResult, error) {
	out := &WorkloadResult{
		Workload: name,
		Inputs:   inputs,
		Speedup:  make(map[string]map[int]float64),
	}
	var oracles, accs []float64
	for _, ir := range out.Inputs {
		oracles = append(oracles, ir.Oracle)
		accs = append(accs, ir.Accuracy)
	}
	var err error
	if out.Oracle, err = stats.HarmonicMean(oracles); err != nil {
		return nil, fmt.Errorf("%s oracle mean: %w", name, err)
	}
	for _, a := range accs {
		out.Accuracy += a
	}
	out.Accuracy /= float64(len(accs))
	for _, m := range cfg.Models {
		ms := make(map[int]float64, len(cfg.Resources))
		for _, et := range cfg.Resources {
			var xs []float64
			for _, ir := range out.Inputs {
				xs = append(xs, ir.Speedup[m.String()][et])
			}
			if ms[et], err = stats.HarmonicMean(xs); err != nil {
				return nil, fmt.Errorf("%s %v ET=%d mean: %w", name, m, et, err)
			}
		}
		out.Speedup[m.String()] = ms
	}
	return out, nil
}

// crossWorkloadMean builds the synthetic "harmonic-mean" result across
// completed workloads (Figure 5's summary panel).
func crossWorkloadMean(done []*WorkloadResult, cfg Config) (*WorkloadResult, error) {
	hm := &WorkloadResult{
		Workload: "harmonic-mean",
		Speedup:  make(map[string]map[int]float64),
	}
	var oracles []float64
	for _, r := range done {
		oracles = append(oracles, r.Oracle)
		hm.Accuracy += r.Accuracy
	}
	hm.Accuracy /= float64(len(done))
	var err error
	if hm.Oracle, err = stats.HarmonicMean(oracles); err != nil {
		return nil, fmt.Errorf("harmonic-mean oracle: %w", err)
	}
	for _, m := range cfg.Models {
		ms := make(map[int]float64, len(cfg.Resources))
		for _, et := range cfg.Resources {
			var xs []float64
			for _, r := range done {
				xs = append(xs, r.Speedup[m.String()][et])
			}
			if ms[et], err = stats.HarmonicMean(xs); err != nil {
				return nil, fmt.Errorf("harmonic-mean %v ET=%d: %w", m, et, err)
			}
		}
		hm.Speedup[m.String()] = ms
	}
	return hm, nil
}

// Render formats one workload result as a Figure 5 panel.
func Render(r *WorkloadResult, cfg Config) string {
	cfg = cfg.withDefaults()
	cols := make([]string, len(cfg.Resources))
	for i, et := range cfg.Resources {
		if et == 0 {
			cols[i] = "unlimited"
		} else {
			cols[i] = fmt.Sprintf("%d", et)
		}
	}
	t := stats.NewTable(
		fmt.Sprintf("%s  (oracle speedup: %.2f, predictor accuracy: %.2f%%)",
			r.Workload, r.Oracle, 100*r.Accuracy),
		"model \\ resources", cols)
	for _, m := range cfg.Models {
		for i, et := range cfg.Resources {
			// Columns are built from the same Resources slice, so Set
			// cannot be out of range.
			_ = t.Set(m.String(), i, r.Speedup[m.String()][et])
		}
	}
	return t.Render()
}
