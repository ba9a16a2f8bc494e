package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"deesim/internal/experiments"
	"deesim/internal/server"
	"deesim/internal/superv"
)

// goldenPath is the Figure 5 golden, relative to the repository root
// the benchmark runs from.
const goldenPath = "results/golden/figure5.json"

// verifier checks delivered results. The reference for a spec is what
// deesimd and deesim-coord serve for it: an in-process
// experiments.RunMatrixContext plus json.MarshalIndent, computed once
// per distinct spec, untimed. cli-figure5 at full size is checked
// against the repo's Figure 5 golden with superv.CompareGolden instead.
// References are cached across the phases of one run.
type verifier struct {
	w      workload
	golden *superv.Golden
	refs   map[string]reference
	log    io.Writer
}

type reference struct {
	digest [32]byte
	insts  float64 // simulated instructions the spec's cells deliver
	err    error
}

func newVerifier(w workload, o options, log io.Writer) (*verifier, error) {
	v := &verifier{w: w, refs: map[string]reference{}, log: log}
	if w.golden && !o.smoke() {
		g, err := superv.LoadGolden(goldenPath)
		if err != nil {
			return nil, fmt.Errorf("load golden (run from the repository root): %w", err)
		}
		v.golden = g
	}
	return v, nil
}

// check verifies every delivery in the phase. It returns the number of
// deliveries that did not match, and the simulated instructions each
// distinct spec delivers.
func (v *verifier) check(ctx context.Context, p *phase) (mismatched int, insts map[string]float64) {
	insts = map[string]float64{}
	keys := make([]string, 0, len(p.outs.bySpec))
	for k := range p.outs.bySpec {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, key := range keys {
		oc := p.outs.bySpec[key]
		ref, ok := v.refs[key]
		if !ok {
			ref = v.reference(ctx, oc)
			v.refs[key] = ref
		}
		bad := 0
		for d, n := range oc.digests {
			if ref.err != nil || d != ref.digest {
				bad += n
			}
		}
		if bad > 0 {
			why := ref.err
			if why == nil {
				why = fmt.Errorf("delivered bytes differ from the reference")
			}
			logf(v.log, "%s: %d deliveries of spec %s failed verification: %v", v.w.name, bad, key, why)
		}
		mismatched += bad
		insts[key] = ref.insts
	}
	return mismatched, insts
}

func (v *verifier) reference(ctx context.Context, oc *outcome) reference {
	if v.golden != nil {
		results, err := decodeResults(oc.first)
		if err == nil {
			err = compareGolden(v.golden, oc.spec, results)
		}
		return reference{digest: sha256.Sum256(oc.first), insts: instsOf(oc.spec, results), err: err}
	}
	ws, cfg, err := oc.spec.Resolve()
	if err != nil {
		return reference{err: err}
	}
	results, err := experiments.RunMatrixContext(ctx, ws, cfg, experiments.MatrixConfig{Jobs: 2})
	if err != nil {
		return reference{err: err}
	}
	data, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		return reference{err: err}
	}
	return reference{digest: sha256.Sum256(data), insts: instsOf(oc.spec, results)}
}

func decodeResults(body []byte) ([]*experiments.WorkloadResult, error) {
	var rs []*experiments.WorkloadResult
	if err := json.Unmarshal(body, &rs); err != nil {
		return nil, fmt.Errorf("decode results: %w", err)
	}
	return rs, nil
}

// instsOf sums CellResult.Insts over a spec's cells: every cell of an
// input simulates that input's whole trace.
func instsOf(spec server.Spec, rs []*experiments.WorkloadResult) float64 {
	per := float64(len(spec.Models) * len(spec.Resources))
	var sum float64
	for _, r := range rs {
		for _, in := range r.Inputs {
			sum += float64(in.Insts) * per
		}
	}
	return sum
}

// compareGolden checks the golden points inside the spec's matrix
// (its workloads plus the harmonic mean, models and ETs).
func compareGolden(g *superv.Golden, spec server.Spec, rs []*experiments.WorkloadResult) error {
	in := func(xs []string, x string) bool {
		for _, y := range xs {
			if y == x {
				return true
			}
		}
		return false
	}
	sub := *g
	sub.Points = nil
	for _, pt := range g.Points {
		etOK := false
		for _, et := range spec.Resources {
			etOK = etOK || et == pt.ET
		}
		if etOK && in(spec.Models, pt.Model) && (pt.Benchmark == "harmonic-mean" || in(spec.Workloads, pt.Benchmark)) {
			sub.Points = append(sub.Points, pt)
		}
	}
	if len(sub.Points) == 0 {
		return fmt.Errorf("golden %s has no points inside the spec's matrix", goldenPath)
	}
	byName := map[string]*experiments.WorkloadResult{}
	for _, r := range rs {
		byName[r.Workload] = r
	}
	return superv.CompareGolden(&sub, func(benchmark, model string, et int) (float64, bool) {
		r, ok := byName[benchmark]
		if !ok {
			return 0, false
		}
		v, ok := r.Speedup[model][et]
		return v, ok
	}, 0)
}
