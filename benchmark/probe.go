package main

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"time"

	"deesim/internal/bench"
	cfgpkg "deesim/internal/cfg"
	"deesim/internal/experiments"
	"deesim/internal/ilpsim"
	"deesim/internal/obs"
	"deesim/internal/predictor"
	"deesim/internal/server"
	"deesim/internal/trace"
)

// The layer probe times the simulator layers' public calls — Build,
// trace.RecordContext, cfg.Build, Trace.DataDeps, ilpsim.NewContext and
// Sim.RunContext — once per distinct input and cell a traced phase
// delivered, and weights each cost by how often the workload makes that
// call: an input is built once per sweep on the matrix paths and once
// per cell on the fleet path.

type inputRef struct {
	name string // "workload/input"
	max  uint64
}

type cellRef struct {
	in    inputRef
	model string
	et    int
}

// calls lists the simulator-layer calls one sweep makes.
type calls struct {
	builds []inputRef
	runs   []cellRef
}

// matrixCalls derives a spec's calls. perCell builds the input for
// every cell (experiments.RunCell); otherwise once per input
// (RunMatrixContext).
func matrixCalls(spec server.Spec, perCell bool) calls {
	ws, cfg, err := spec.Resolve()
	if err != nil {
		return calls{}
	}
	var c calls
	for _, w := range ws {
		for _, in := range w.Inputs {
			ref := inputRef{name: w.Name + "/" + in.Name, max: spec.MaxInstrs}
			if !perCell {
				c.builds = append(c.builds, ref)
			}
			for _, m := range cfg.Models {
				for _, et := range cfg.Resources {
					c.runs = append(c.runs, cellRef{in: ref, model: m.String(), et: et})
					if perCell {
						c.builds = append(c.builds, ref)
					}
				}
			}
		}
	}
	return c
}

type inputCost struct {
	insts                               int
	build, record, deps, graph, prepare time.Duration
	allocBytes                          uint64
}

type cellCost struct {
	run    time.Duration
	cycles float64
	encode time.Duration // json.Marshal of the cell's CellResult
}

type probeResult struct {
	buildW         map[inputRef]float64
	runW           map[cellRef]float64
	inputs         map[inputRef]*inputCost
	cells          map[cellRef]*cellCost // the sampled cells
	sweeps         float64
	encodes        time.Duration // result MarshalIndent, summed over sweeps that computed
	cellsDelivered float64
	spans          []tspan
}

// probeMaxCells bounds the probe's simulation time; the cells timed
// are an even stride through the distinct cells, and run costs are
// weighted averages over them.
const probeMaxCells = 120

var paperModelByName = func() map[string]ilpsim.Model {
	m := map[string]ilpsim.Model{}
	for _, pm := range ilpsim.PaperModels {
		m[pm.String()] = pm
	}
	return m
}()

var benchInputs = func() map[string]bench.Input {
	m := map[string]bench.Input{}
	for _, w := range bench.All() {
		for _, in := range w.Inputs {
			m[w.Name+"/"+in.Name] = in
		}
	}
	return m
}()

func runProbe(ctx context.Context, p *phase) (*probeResult, error) {
	pr := &probeResult{
		buildW: map[inputRef]float64{},
		runW:   map[cellRef]float64{},
		inputs: map[inputRef]*inputCost{},
		cells:  map[cellRef]*cellCost{},
	}
	for _, sw := range p.ok() {
		pr.sweeps++
		pr.cellsDelivered += float64(sw.cells)
		for _, b := range sw.calls.builds {
			pr.buildW[b]++
		}
		for _, r := range sw.calls.runs {
			pr.runW[r]++
		}
	}
	var distinct []cellRef
	for c := range pr.runW {
		distinct = append(distinct, c)
	}
	sort.Slice(distinct, func(i, j int) bool { return cellLess(distinct[i], distinct[j]) })
	stride := max(1, (len(distinct)+probeMaxCells-1)/probeMaxCells)
	byInput := map[inputRef][]cellRef{}
	for in := range pr.buildW {
		byInput[in] = nil
	}
	for _, c := range distinct {
		byInput[c.in] = nil
	}
	for i := 0; i < len(distinct); i += stride {
		byInput[distinct[i].in] = append(byInput[distinct[i].in], distinct[i])
	}
	var ins []inputRef
	for in := range byInput {
		ins = append(ins, in)
	}
	sort.Slice(ins, func(i, j int) bool {
		return ins[i].name < ins[j].name || ins[i].name == ins[j].name && ins[i].max < ins[j].max
	})
	cycles := obs.GetOrCreateCounter("deesim_sim_cycles_total")
	pred := "2bit" // experiments.Config's default predictor
	for _, in := range ins {
		start := time.Now()
		cost, sim, tr, err := probeInput(ctx, in, pred)
		if err != nil {
			return nil, err
		}
		pr.inputs[in] = cost
		pr.spans = append(pr.spans, tspan{lane: "probe", name: "prepare " + in.name, start: start, end: time.Now()})
		for _, c := range byInput[in] {
			m := paperModelByName[c.model]
			c0 := cycles.Value()
			t0 := time.Now()
			r, err := sim.RunContext(ctx, m, c.et)
			run := time.Since(t0)
			if err != nil {
				return nil, fmt.Errorf("probe %s %s ET=%d: %w", in.name, c.model, c.et, err)
			}
			pr.spans = append(pr.spans, tspan{lane: "probe", name: fmt.Sprintf("run %s|%s|ET=%d", in.name, c.model, c.et), start: t0, end: t0.Add(run)})
			cr := experiments.CellResult{Insts: tr.Len(), Accuracy: sim.Accuracy(), Oracle: sim.Oracle().Speedup, Speedup: r.Speedup, RootRate: r.RootResolutionRate()}
			t1 := time.Now()
			_, _ = json.Marshal(cr)
			pr.cells[c] = &cellCost{run: run, cycles: float64(cycles.Value() - c0), encode: time.Since(t1)}
		}
	}
	// Result encoding: every sweep marshals its whole result.
	computed := map[string]int{}
	for _, sw := range p.ok() {
		computed[sw.key]++
	}
	for key, n := range computed {
		results, err := decodeResults(p.outs.bySpec[key].first)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		_, _ = json.MarshalIndent(results, "", "  ")
		pr.encodes += time.Duration(n) * time.Since(t0)
	}
	return pr, nil
}

func cellLess(a, b cellRef) bool {
	if a.in.name != b.in.name {
		return a.in.name < b.in.name
	}
	if a.model != b.model {
		return a.model < b.model
	}
	return a.et < b.et
}

// probeInput times one input through the layers a cell's preparation
// calls: program build, trace capture, CFG, data dependences, and the
// prepared simulator (which repeats the last two inside NewContext).
func probeInput(ctx context.Context, in inputRef, predName string) (*inputCost, *ilpsim.Sim, *trace.Trace, error) {
	bi, ok := benchInputs[in.name]
	if !ok {
		return nil, nil, nil, fmt.Errorf("probe: unknown input %s", in.name)
	}
	c := &inputCost{}
	t := time.Now()
	prog, err := bi.Build(0)
	c.build = time.Since(t)
	if err != nil {
		return nil, nil, nil, err
	}
	t = time.Now()
	tr, err := trace.RecordContext(ctx, prog, in.max)
	c.record = time.Since(t)
	if err != nil {
		return nil, nil, nil, err
	}
	c.insts = tr.Len()
	t = time.Now()
	cfgpkg.Build(prog)
	c.graph = time.Since(t)
	t = time.Now()
	tr.DataDeps(false)
	c.deps = time.Since(t)
	pred, err := predictor.New(predName)
	if err != nil {
		return nil, nil, nil, err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t = time.Now()
	sim, err := ilpsim.NewContext(ctx, tr, pred, ilpsim.DefaultOptions())
	c.prepare = time.Since(t)
	runtime.ReadMemStats(&m1)
	if err != nil {
		return nil, nil, nil, err
	}
	c.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	return c, sim, tr, nil
}

// metrics adds the probe's per-layer metrics to set.
func (pr *probeResult) metrics(set func(name, unit string, v float64, n int)) {
	var insts, build, record, deps, graph, prepare, alloc float64
	for in, w := range pr.buildW {
		c := pr.inputs[in]
		insts += w * float64(c.insts)
		build += w * float64(c.build)
		record += w * float64(c.record)
		deps += w * float64(c.deps)
		graph += w * float64(c.graph)
		prepare += w * float64(c.prepare)
		alloc += w * float64(c.allocBytes)
	}
	nb := len(pr.buildW)
	set("bench.build_ms", "ms", ratio(build, pr.sweeps)/1e6, nb)
	set("trace.record_ns_per_inst", "ns", ratio(record, insts), nb)
	set("trace.datadeps_ns_per_inst", "ns", ratio(deps, insts), nb)
	set("cfg.build_ms", "ms", ratio(graph, pr.sweeps)/1e6, nb)
	set("ilpsim.prepare_ns_per_inst", "ns", ratio(prepare, insts), nb)
	set("ilpsim.prepare_alloc_bytes_per_inst", "B", ratio(alloc, insts), nb)

	runNsPerInst := func(model string) (float64, int) {
		var t, n float64
		k := 0
		for c, cc := range pr.cells {
			if model == "" || c.model == model {
				w := pr.runW[c]
				t += w * float64(cc.run)
				n += w * float64(pr.inputs[c.in].insts)
				k++
			}
		}
		return ratio(t, n), k
	}
	runRate, k := runNsPerInst("")
	set("ilpsim.run_ns_per_inst", "ns", runRate, k)
	for _, m := range paperModels {
		v, n := runNsPerInst(m)
		set("ilpsim.run_ns_per_inst."+m, "ns", v, n)
	}
	var runT, cyc, enc, encW float64
	for c, cc := range pr.cells {
		w := pr.runW[c]
		runT += w * float64(cc.run)
		cyc += w * cc.cycles
		enc += w * float64(cc.encode)
		encW += w
	}
	set("ilpsim.host_ns_per_sim_cycle", "ns", ratio(runT, cyc), len(pr.cells))

	// Run time of every executed cell, sampled or not, at the sampled
	// per-instruction rate.
	var runInsts, runs float64
	for c, w := range pr.runW {
		runInsts += w * float64(pr.inputs[c.in].insts)
		runs += w
	}
	prepTotal := build + record + prepare
	set("experiments.build_share", "ratio", ratio(prepTotal, prepTotal+runRate*runInsts), nb+k)
	cellEncode := ratio(enc, encW) * runs
	set("experiments.encode_us_per_cell", "us", ratio(cellEncode+float64(pr.encodes), pr.cellsDelivered)/1e3, len(pr.cells))
}
