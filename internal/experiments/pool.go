package experiments

import (
	"context"
	"strconv"
	"sync"
	"time"

	"deesim/internal/bench"
	"deesim/internal/ilpsim"
	"deesim/internal/memo"
	"deesim/internal/obs"
	"deesim/internal/runx"
	"deesim/internal/trace"
)

// InputPool shares prepared inputs — an input's recorded trace plus its
// prepared simulator — between the cells that run on them, so an input
// is recorded and prepared once however many (model × ET) cells it
// serves. Entries are keyed by InputKey and pinned while a user still
// needs them: RunMatrixContext pins each input for all of its cells and
// unpins one per merge; a leased cell pins its input only while it
// runs. The pool keeps at most idle unpinned entries, evicting the one
// pinned least recently first — on unpin, and again before a new
// entry's build starts, so a build never runs beside more than idle-1
// idle entries. RunMatrixContext uses idle 0 (an input is released once
// its last cell merges); a deesimd worker uses its cell-slot count, so
// it holds at least the last that many distinct inputs it was leased —
// the inputs deesim-coord records for it and routes their cells to.
//
// An input whose options carry a data cache or memory system is never
// shared: InputKey records only whether those pointers are set, so the
// pool hands such a user a private entry.
type InputPool struct {
	idle int

	mu      sync.Mutex // guards entries, clock, and every entry's pins and used
	entries map[string]*poolEntry
	clock   uint64 // pin counter, the LRU order
}

// NewInputPool returns an empty pool that keeps at most idle unpinned
// entries (negative means 0).
func NewInputPool(idle int) *InputPool {
	return &InputPool{idle: max(idle, 0), entries: make(map[string]*poolEntry)}
}

// poolEntry is one prepared input. Only the build is serialized on mu;
// the runs themselves proceed unlocked and in parallel, because
// ilpsim.Sim is read-only after construction and documented safe for
// concurrent RunContext calls — a pool of workers can fan all of one
// input's (model × ET) cells over a single prepared Sim at once.
// Building inside the first cell's attempt keeps build failures
// attributed — and retried — as that cell's.
type poolEntry struct {
	key   string // InputKey; "" for a private entry
	name  string // "workload/input", the benchmark attribution
	build buildable
	pins  int    // users still needing the entry
	used  uint64 // clock at its last pin

	mu  sync.Mutex
	tr  *trace.Trace
	sim *ilpsim.Sim
}

// pin returns the entry for key with n pins taken, creating it unbuilt
// on a miss. An empty key returns a private entry.
func (p *InputPool) pin(key, name string, build buildable, n int) *poolEntry {
	p.mu.Lock()
	defer p.mu.Unlock()
	e := p.entries[key]
	if e == nil {
		e = &poolEntry{key: key, name: name, build: build}
		if key != "" {
			// Make room before the new entry's build starts.
			p.evictLocked(p.idle - 1)
			p.entries[key] = e
		}
	}
	e.pins += n
	p.clock++
	e.used = p.clock
	return e
}

// unpin drops one pin. An entry nobody pins any longer is released at
// once if private, otherwise kept for reuse within the idle cap.
func (p *InputPool) unpin(e *poolEntry) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if e.pins--; e.pins > 0 {
		return
	}
	if e.key == "" {
		e.release()
		return
	}
	p.evictLocked(p.idle)
}

// evictLocked releases the unpinned entries pinned least recently until
// at most keep remain.
func (p *InputPool) evictLocked(keep int) {
	for {
		var lru *poolEntry
		n := 0
		for _, e := range p.entries {
			if e.pins > 0 {
				continue
			}
			n++
			if lru == nil || e.used < lru.used {
				lru = e
			}
		}
		if n <= max(keep, 0) {
			return
		}
		delete(p.entries, lru.key)
		lru.release()
	}
}

// release drops the trace and prepared simulator. Only unpinned entries
// are released, so no cell is reading them.
func (e *poolEntry) release() {
	e.mu.Lock()
	e.tr, e.sim = nil, nil
	e.mu.Unlock()
}

// get returns the shared trace and simulator, building them under the
// lock on first use.
func (e *poolEntry) get(ctx context.Context, cfg Config) (*trace.Trace, *ilpsim.Sim, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.tr != nil && e.sim != nil {
		mInputReuses.Inc()
		return e.tr, e.sim, nil
	}
	mInputBuilds.Inc()
	ctx, endBuild := obs.StartSpan(ctx, "build "+e.name, nil)
	defer endBuild()
	if e.tr == nil {
		tr, err := recordInput(ctx, e.name, e.build, cfg)
		if err != nil {
			return nil, nil, err
		}
		e.tr = tr
	}
	sim, err := newInputSim(ctx, e.name, e.tr, cfg)
	if err != nil {
		return nil, nil, err
	}
	e.sim = sim
	return e.tr, e.sim, nil
}

// drop discards the shared simulator if it is still the given one, so
// the next cell (or the retry) rebuilds it. Concurrent cells already
// running on the old simulator finish on it safely; only new
// acquisitions see the rebuild.
func (e *poolEntry) drop(sim *ilpsim.Sim) {
	e.mu.Lock()
	if e.sim == sim {
		e.sim = nil
	}
	e.mu.Unlock()
}

// run executes one cell on the entry's prepared simulator.
func (e *poolEntry) run(ctx context.Context, t MatrixTask, cfg Config) (*CellResult, error) {
	mCellsStarted.Inc()
	ctx, endSpan := obs.StartSpan(ctx, "cell "+t.Key(), map[string]string{
		"workload": t.Workload, "input": t.Input, "model": t.Model, "et": strconv.Itoa(t.ET),
	})
	start := time.Now()
	defer func() {
		endSpan()
		traceID := ""
		if tc, ok := obs.TraceContextFrom(ctx); ok {
			traceID = tc.TraceID
		}
		mCellDuration.ObserveExemplar(time.Since(start).Seconds(), traceID)
	}()
	tr, sim, err := e.get(ctx, cfg)
	if err != nil {
		return nil, err
	}
	model, err := modelByName(t.Model, cfg)
	if err != nil {
		return nil, runx.Annotate(err, e.name)
	}
	var r ilpsim.Result
	if t.ET == 0 {
		r, err = sim.RunUnlimitedContext(ctx, model)
	} else {
		r, err = sim.RunContext(ctx, model, t.ET)
	}
	if err != nil {
		// A fault-injected memory system can bake bad latencies into the
		// prepared simulator; drop it so the retry (or the input's next
		// cell) starts from a freshly prepared one. Only a private entry
		// can carry a memory system (see InputKey): a shared entry's
		// simulator is a pure function of its key, so it is kept
		// whatever the error — a deadline expiry included.
		if e.key == "" && runx.Retryable(err) {
			e.drop(sim)
		}
		return nil, runx.Annotate(err, e.name)
	}
	return &CellResult{
		Workload: t.Workload,
		Input:    t.Input,
		Model:    t.Model,
		ET:       t.ET,
		Insts:    tr.Len(),
		Accuracy: sim.Accuracy(),
		Oracle:   sim.Oracle().Speedup,
		Speedup:  r.Speedup,
		RootRate: r.RootResolutionRate(),
	}, nil
}

// RunCell executes exactly one matrix cell on the pool's prepared copy
// of its input, building the input on a miss, and returns the same
// CellResult payload a journaled sweep records. The input is pinned
// only while the cell runs. With a memo, the cell consults the
// content-addressed cache first: a hit (or a collapse onto an identical
// in-flight cell) touches neither the pool nor the simulator. This is
// the worker half of a distributed sweep — a deesimd node serves leased
// cells through it. Unknown workloads, inputs, or models are typed
// KindInvalidInput so a coordinator never re-dispatches a structurally
// impossible cell.
func (p *InputPool) RunCell(ctx context.Context, m *memo.Memo, ws []bench.Workload, cfg Config, t MatrixTask) (*CellResult, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := validateWorkloads(ws); err != nil {
		return nil, err
	}
	build, err := inputBuild(ws, t)
	if err != nil {
		return nil, err
	}
	run := func(ctx context.Context) (*CellResult, error) {
		e := p.pin(InputKey(cfg, t), t.Workload+"/"+t.Input, build, 1)
		defer p.unpin(e)
		return e.run(ctx, t, cfg)
	}
	if m == nil {
		return run(ctx)
	}
	return memoizedCell(ctx, m, t, cfg, run)
}

// inputBuild finds the function that builds the cell's input program.
func inputBuild(ws []bench.Workload, t MatrixTask) (buildable, error) {
	const stage = "experiments.RunCell"
	for _, w := range ws {
		if w.Name != t.Workload {
			continue
		}
		for _, in := range w.Inputs {
			if in.Name == t.Input {
				return in.Build, nil
			}
		}
		return nil, runx.Newf(runx.KindInvalidInput, stage, "workload %q has no input %q", t.Workload, t.Input)
	}
	return nil, runx.Newf(runx.KindInvalidInput, stage, "unknown workload %q", t.Workload)
}

// RunCell executes one matrix cell from scratch: it builds the cell's
// input, runs the (model, ET) simulation, and releases the input.
func RunCell(ctx context.Context, ws []bench.Workload, cfg Config, t MatrixTask) (*CellResult, error) {
	return NewInputPool(0).RunCell(ctx, nil, ws, cfg, t)
}
