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
)

// InputPool shares prepared inputs — an input's prepared simulator,
// built straight from the input's recorded instruction stream
// (ilpsim.RecordContext) — between the cells that run on them, so an
// input is recorded and prepared once however many (model × ET) cells
// it serves. An entry holds only the simulator, which carries the
// instruction count; no trace is kept. Entries are
// keyed by InputKey and pinned while a user still needs them:
// RunMatrixContext pins each input for all of its cells and unpins one
// per merge; a leased cell pins its input only while it runs. The pool
// keeps at most idle unpinned entries, evicting the one pinned least
// recently first — on unpin, and again before a new entry's build
// starts, so a build never runs beside more than idle-1 idle entries.
// RunMatrixContext uses idle 0 (an input is released once its last
// cell merges); a deesimd worker uses its cell-slot count, so it holds
// at least the last that many distinct inputs it was leased — the
// inputs deesim-coord records for it and routes their cells to.
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

// poolEntry is one prepared input. One cell at a time builds it; the
// runs themselves proceed in parallel, because ilpsim.Sim is read-only
// after construction and documented safe for concurrent RunContext
// calls — a pool of workers can fan all of one input's (model × ET)
// cells over a single prepared Sim at once. Building inside the first
// cell's attempt keeps build failures attributed — and retried — as
// that cell's.
type poolEntry struct {
	key   string // InputKey; "" for a private entry
	name  string // "workload/input", the benchmark attribution
	build buildable
	pins  int    // users still needing the entry
	used  uint64 // clock at its last pin

	mu       sync.Mutex    // guards sim and building
	sim      *ilpsim.Sim   // nil until built, and again once released or dropped
	building chan struct{} // non-nil while a build runs; closed when it ends
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

// pinned reports whether some user still needs e.
func (p *InputPool) pinned(e *poolEntry) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return e.pins > 0
}

// release drops the prepared simulator. Only unpinned entries are
// released, so no cell is reading it.
func (e *poolEntry) release() {
	e.mu.Lock()
	e.sim = nil
	e.mu.Unlock()
}

// get returns the shared simulator, building it on first use. A cell
// that finds another cell's build of the entry in flight waits for it
// and then takes its simulator, or builds the entry itself if that
// build failed. Before waiting it builds the next input ahead when its
// sweep allows it (ahead non-nil; see buildAhead).
func (e *poolEntry) get(ctx context.Context, cfg Config, ahead *buildAhead) (*ilpsim.Sim, error) {
	for {
		e.mu.Lock()
		if sim := e.sim; sim != nil {
			e.mu.Unlock()
			mInputReuses.Inc()
			return sim, nil
		}
		wait := e.building
		if wait == nil {
			e.building = make(chan struct{})
			e.mu.Unlock()
			return e.fill(ctx, cfg, false)
		}
		e.mu.Unlock()
		if ahead != nil {
			ahead.next(ctx, cfg)
		}
		<-wait
	}
}

// fill runs the build the caller claimed (by setting e.building): it
// records the input's trace into its prepared simulator and keeps the
// simulator. A failed build — a panic included, returned as a KindPanic
// error — leaves the entry empty, so the next cell to need it builds it
// again. Either way the build ends, so no cell waits on it forever.
func (e *poolEntry) fill(ctx context.Context, cfg Config, ahead bool) (sim *ilpsim.Sim, err error) {
	mInputBuilds.Inc()
	var attrs map[string]string
	if ahead {
		mInputBuildsAhead.Inc()
		attrs = map[string]string{"ahead": "true"}
	}
	ctx, endBuild := obs.StartSpan(ctx, "build "+e.name, attrs)
	defer func() {
		if r := recover(); r != nil {
			sim, err = nil, runx.FromPanic(r, "experiments.build")
		}
		endBuild()
		e.mu.Lock()
		e.sim = sim
		close(e.building)
		e.building = nil
		e.mu.Unlock()
	}()
	return buildInputSim(ctx, e.name, e.build, cfg)
}

// buildAhead gives a sweep's waiting cells work that is certain to be
// needed next. A cell whose input another cell is still building first
// builds the next input of the sweep, in task order, that no cell has
// started — while fewer than limit of the sweep's inputs are built or
// building — and only then waits for its own input. A build-ahead that
// fails (or is cancelled) is discarded: the input stays unbuilt, and
// its own first cell builds it and owns the error, under that cell's
// retry policy.
type buildAhead struct {
	pool   *InputPool
	inputs []*poolEntry // the sweep's inputs in task order
	limit  int          // inputs built or building, at most

	mu sync.Mutex // serializes claims, so two cells never claim past the limit
}

// next builds ahead if a build can be claimed.
func (b *buildAhead) next(ctx context.Context, cfg Config) {
	if e := b.claim(); e != nil {
		_, _ = e.fill(ctx, cfg, true) // a failure is the input's own cell's to report
	}
}

// claim marks the first unstarted input still needed as building and
// returns it, or returns nil when there is none or limit inputs are
// already built or building.
func (b *buildAhead) claim() *poolEntry {
	b.mu.Lock()
	defer b.mu.Unlock()
	live := 0
	var next *poolEntry
	for _, e := range b.inputs {
		if !b.pool.pinned(e) {
			continue // finished (or replayed from the journal): released
		}
		e.mu.Lock()
		if e.sim != nil || e.building != nil {
			live++
		} else if next == nil {
			next = e
		}
		e.mu.Unlock()
	}
	if next == nil || live >= b.limit {
		return nil
	}
	next.mu.Lock()
	defer next.mu.Unlock()
	if next.sim != nil || next.building != nil {
		return nil // its own first cell started it meanwhile
	}
	next.building = make(chan struct{})
	return next
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

// run executes one cell on the entry's prepared simulator (see get for
// ahead).
func (e *poolEntry) run(ctx context.Context, t MatrixTask, cfg Config, ahead *buildAhead) (*CellResult, error) {
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
	sim, err := e.get(ctx, cfg, ahead)
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
		Insts:    sim.Insts(),
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
		return e.run(ctx, t, cfg, nil)
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
