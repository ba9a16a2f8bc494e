package ilpsim

import (
	"context"
	"math"

	"deesim/internal/cache"
	"deesim/internal/cfg"
	"deesim/internal/dee"
	"deesim/internal/isa"
	"deesim/internal/predictor"
	"deesim/internal/runx"
	"deesim/internal/trace"
)

// New prepares the simulator: records dependencies, runs the predictor
// over the trace (predict-then-update in trace order, as the paper's
// 2-bit counters are trained), and computes control-dependence joins.
// The trace and options are validated; a bad input comes back as a
// *runx.Error of kind KindInvalidInput instead of a downstream panic.
func New(tr *trace.Trace, pred predictor.Predictor, opts Options) (*Sim, error) {
	return NewContext(context.Background(), tr, pred, opts)
}

// MustNew is New for tests and examples with known-good inputs; it
// panics on error.
func MustNew(tr *trace.Trace, pred predictor.Predictor, opts Options) *Sim {
	s, err := New(tr, pred, opts)
	if err != nil {
		panic(err)
	}
	return s
}

// NewContext is New with cooperative cancellation: the build checks ctx
// before it starts and between chunks of the trace, so a deadline set
// before a heavy sweep also bounds simulator construction. It feeds
// tr's instructions, once validated, to the same one-pass build as
// RecordContext (trace.Trace.Stream).
func NewContext(ctx context.Context, tr *trace.Trace, pred predictor.Predictor, opts Options) (s *Sim, err error) {
	defer recoverBuild(&s, &err)
	if tr == nil {
		return nil, runx.Newf(runx.KindInvalidInput, buildStage, "nil trace")
	}
	if verr := tr.Validate(); verr != nil {
		return nil, &runx.Error{Kind: runx.KindInvalidInput, Stage: buildStage, Err: verr}
	}
	opts, mem, err := checkInputs(pred, opts)
	if err != nil {
		return nil, err
	}
	return build(ctx, tr.Stream(), pred, opts, mem)
}

// RecordContext runs program p on the functional simulator, capturing
// up to limit dynamic instructions (0 = unlimited; see trace.Record),
// and prepares the simulator straight from the captured chunks: no
// trace.Trace is assembled, so the instructions are never copied into
// one slice, and the chunks are garbage once it returns. The Sim equals
// the one NewContext prepares from trace.Record(p, limit). Errors from
// the functional simulator come back as trace.RecordContext returns
// them.
func RecordContext(ctx context.Context, p *isa.Program, limit uint64, pred predictor.Predictor, opts Options) (s *Sim, err error) {
	defer recoverBuild(&s, &err)
	opts, mem, err := checkInputs(pred, opts)
	if err != nil {
		return nil, err
	}
	st, err := trace.RecordStream(ctx, p, limit)
	if err != nil {
		return nil, err
	}
	return build(ctx, st, pred, opts, mem)
}

const buildStage = "ilpsim.New"

// recoverBuild turns a panic during preparation into a typed error.
func recoverBuild(s **Sim, err *error) {
	if r := recover(); r != nil {
		*s, *err = nil, runx.FromPanic(r, buildStage)
	}
}

// checkInputs validates the predictor and options, fills the default
// deadlock limit, and returns the memory system loads and stores are
// replayed through (nil for none).
func checkInputs(pred predictor.Predictor, opts Options) (Options, MemSystem, error) {
	if pred == nil {
		return opts, nil, runx.Newf(runx.KindInvalidInput, buildStage, "nil predictor")
	}
	if opts.DeadlockLimit < 0 {
		return opts, nil, runx.Newf(runx.KindInvalidInput, buildStage, "negative DeadlockLimit %d", opts.DeadlockLimit)
	}
	if opts.DeadlockLimit == 0 {
		opts.DeadlockLimit = DefaultDeadlockLimit
	}
	mem := opts.Mem
	if mem == nil && opts.Cache != nil {
		dc, err := cache.New(*opts.Cache)
		if err != nil {
			return opts, nil, &runx.Error{Kind: runx.KindInvalidInput, Stage: buildStage, Err: err}
		}
		mem = dc
	}
	return opts, mem, nil
}

// staticInfo is what the build reads of one static instruction, plus
// that instruction's predictor replay counts and, for a branch, its
// side write sets once a misprediction first needs them.
type staticInfo struct {
	ops         trace.Operands
	src         uint32 // registers read, $zero excluded
	lat         int32  // latency under Options.Lat
	ipdom       int32  // immediate postdominator (-1 unknown)
	branch      bool   // conditional branch
	sideKnown   bool
	side        [2]cfg.WriteSet // taken, fall side writes
	hits, total int32
}

// build prepares a Sim in one pass over the stream, in trace order.
// The stream's length and branch count size every table once; the
// loop then fills, per instruction, the producers (trace.Producers),
// source mask, load flag and latency (replaying loads and stores
// through mem in trace order), and per branch the path tables: the
// predictor replay, the wrong-side write set and the join. A branch's
// join is the first later occurrence of its immediate postdominator, so
// the branch waits on that static's next occurrence (a list threaded
// through pathJoin, headed per static) and the occurrence resolves it.
// The same loop pulls the Oracle's dataflow finish times from the
// producers, so the Oracle is a stored Result. build consumes st: it
// drops each chunk once read, and checks ctx between chunks.
func build(ctx context.Context, st *trace.Stream, pred predictor.Predictor, opts Options, mem MemSystem) (*Sim, error) {
	if cerr := runx.CtxErr(ctx, buildStage); cerr != nil {
		return nil, cerr
	}
	prog := st.Prog
	g := cfg.Build(prog)
	lat := opts.Lat.normalized()
	info := make([]staticInfo, len(prog.Code))
	joinWait := make([]int32, len(prog.Code)) // per static: head of the paths waiting for its next occurrence
	for i, in := range prog.Code {
		si := &info[i]
		si.ops = trace.OperandsOf(in)
		for _, r := range in.Src() {
			if r != isa.Zero {
				si.src |= 1 << uint(r)
			}
		}
		si.lat = int32(lat.of(in.Op))
		si.branch = isa.IsCondBranch(in.Op)
		si.ipdom = -1
		if si.branch {
			si.ipdom = g.IPdom(int32(i))
		}
		joinWait[i] = -1
	}

	n, nb := st.Len, st.Branches
	np := nb
	last := st.Chunks[len(st.Chunks)-1]
	if !last[len(last)-1].IsBranch() {
		np++ // the branchless tail
	}
	s := &Sim{
		n:           n,
		opts:        opts,
		branches:    nb,
		prod:        make([][3]int32, n),
		srcMask:     make([]uint32, n),
		isLoad:      make([]bool, n),
		lat:         make([]int32, n),
		pathStart:   make([]int32, np+1),
		pathBranch:  make([]int32, np),
		pathCorrect: make([]bool, np),
		pathJoin:    make([]int32, np),
		pathWrong:   make([]cfg.WriteSet, np),
		pathStatic:  make([]int32, np),
	}
	// fin[k+1] is instruction k's Oracle finish, saturated at 32 bits
	// (see below); fin[0] = 0 stands for every absent producer
	// (trace.NoDep + 1).
	fin := make([]int32, n+1)
	var oracleCycles int64
	pr := trace.NewProducers(opts.StrictMemory)
	hits := 0
	p := int32(0) // the path being filled
	k := int32(0)
	for c, chunk := range st.Chunks {
		if cerr := runx.CtxErr(ctx, buildStage); cerr != nil {
			return nil, cerr
		}
		st.Chunks[c] = nil // so a recorded chunk is garbage once read
		for j := range chunk {
			din := &chunk[j]
			si := &info[din.Static]
			if q := joinWait[din.Static]; q >= 0 {
				joinWait[din.Static] = -1
				for q >= 0 {
					q, s.pathJoin[q] = s.pathJoin[q], k // resolve a waiter, step to the next
				}
			}

			rs, rt, md := pr.Next(si.ops, din.MemAddr, k)
			s.prod[k] = [3]int32{rs, rt, md}
			s.srcMask[k] = si.src
			l := si.lat
			if si.ops.Width != 0 {
				s.isLoad[k] = !si.ops.Store
				if mem != nil {
					if si.ops.Store {
						mem.Access(din.MemAddr) // stores allocate but retire off the critical path
					} else {
						l = int32(max(mem.Latency(din.MemAddr), 1)) // a faulty memory system cannot bend time backwards
					}
				}
			}
			s.lat[k] = l
			s.maxLat = max(s.maxLat, l)
			f := int64(max(fin[rs+1], fin[rt+1], fin[md+1])) + int64(l)
			fin[k+1] = int32(min(f, math.MaxInt32))
			oracleCycles = max(oracleCycles, f)

			if si.branch {
				ok := pred.Predict(din.Static) == din.Taken
				pred.Update(din.Static, din.Taken)
				si.total++
				if ok {
					si.hits++
					hits++
				} else {
					if !si.sideKnown {
						si.side[0], si.side[1] = g.SideWrites(din.Static)
						si.sideKnown = true
					}
					wrong := 0 // actually fell through: the machine went down the taken side
					if din.Taken {
						wrong = 1
					}
					s.pathWrong[p] = si.side[wrong]
				}
				s.pathBranch[p], s.pathCorrect[p], s.pathStatic[p] = k, ok, din.Static
				s.pathJoin[p] = -1
				if si.ipdom >= 0 {
					s.pathJoin[p], joinWait[si.ipdom] = joinWait[si.ipdom], p
				}
				p++
				s.pathStart[p] = k + 1
			}
			k++
		}
	}
	for _, q := range joinWait {
		for q >= 0 {
			q, s.pathJoin[q] = s.pathJoin[q], -1
		}
	}
	if int(p) < np {
		s.pathBranch[p], s.pathCorrect[p], s.pathJoin[p], s.pathStatic[p] = -1, true, -1, -1
		s.pathStart[np] = int32(n)
	}

	s.mispredicts = nb - hits
	s.accuracy = 1
	if nb > 0 {
		s.accuracy = float64(hits) / float64(nb)
	}
	s.profAcc = make([]float64, len(info))
	for i, si := range info {
		if si.total > 0 {
			s.profAcc[i] = float64(si.hits) / float64(si.total)
		}
	}
	if mem != nil {
		_, _, s.cacheMissRate = mem.Stats()
	}
	if oracleCycles >= math.MaxInt32 {
		// A finish time past 32 bits saturated, and every later one read
		// from it is off: run the Oracle as the unlimited EE-CD-MF
		// pass, which keeps 64-bit times where they are needed.
		o, err := s.runForward(ctx, Model{dee.EE, CDMF}, 0)
		if err != nil {
			return nil, err
		}
		o.ET = -1
		s.oracle = o
		return s, nil
	}
	s.oracle = s.resultHeader(Model{dee.EE, CDMF}, -1)
	s.oracle.Cycles = oracleCycles
	s.oracle.Speedup = float64(n) / float64(oracleCycles)
	s.oracle.AvgPEs = s.oracle.Speedup // one instruction per PE per cycle
	return s, nil
}

// kernelTables are the event kernel's tables, derived from the retained
// ones on a Sim's first event-kernel run (Sim.kernel) and read-only
// afterwards. wakeOff/wakeList form a CSR producer→consumer adjacency
// over the producers: wakeList[wakeOff[p]:wakeOff[p+1]] lists, in
// ascending trace order, every instruction with a dependency slot on
// producer p, once per slot, matching the per-slot in-degrees in
// initPending. path[k] is instruction k's path; nextBranch[k] the trace
// position of the conditional branch after branch k (-1 otherwise);
// misp[k] marks mispredicted branches. initPending and initReady seed a
// run's dependency counters and ready set (one bit per trace position),
// indexed [0] for the serialization-free (MF) models and [1] for the
// serialized ones, where each branch after the first also waits on the
// one before it.
type kernelTables struct {
	path        []int32
	misp        []bool
	nextBranch  []int32
	wakeOff     []int32
	wakeList    []int32
	initPending [2][]uint8
	initReady   [2][]uint64
}

// kernel returns the event kernel's tables, deriving them on first use.
// Concurrent first runs wait for one derivation.
func (s *Sim) kernel() *kernelTables {
	s.kernOnce.Do(s.deriveKernel)
	return &s.kern
}

func (s *Sim) deriveKernel() {
	n := s.n
	kt := &s.kern
	kt.path = make([]int32, n)
	for p := range s.pathBranch {
		for k := s.pathStart[p]; k < s.pathStart[p+1]; k++ {
			kt.path[k] = int32(p)
		}
	}
	pend0, pend1 := make([]uint8, n), make([]uint8, n)
	// wakeOff[p+2] counts producer p's consumer slots, then the prefix
	// sum turns the counts into offsets, leaving wakeOff[p+1] at p's
	// first slot: p's fill cursor, which ends at p+1's first slot. A
	// producer precedes its consumer, so p <= n-2 and p+2 stays in range.
	kt.wakeOff = make([]int32, n+1)
	for k, pr := range s.prod {
		var c uint8
		for _, p := range pr {
			if p != noDep {
				kt.wakeOff[p+2]++
				c++
			}
		}
		pend0[k], pend1[k] = c, c
	}
	kt.misp = make([]bool, n)
	kt.nextBranch = make([]int32, n)
	for k := range kt.nextBranch {
		kt.nextBranch[k] = -1
	}
	prev := int32(-1)
	for p, b := range s.pathBranch {
		if b < 0 {
			continue
		}
		kt.misp[b] = !s.pathCorrect[p]
		if prev >= 0 {
			kt.nextBranch[prev] = b
			pend1[b]++ // serialized behind the previous branch
		}
		prev = b
	}
	for i := 1; i <= n; i++ {
		kt.wakeOff[i] += kt.wakeOff[i-1]
	}
	kt.wakeList = make([]int32, kt.wakeOff[n])
	for k, pr := range s.prod {
		for _, p := range pr {
			if p != noDep {
				kt.wakeList[kt.wakeOff[p+1]] = int32(k)
				kt.wakeOff[p+1]++
			}
		}
	}
	kt.initPending = [2][]uint8{pend0, pend1}
	for si, pend := range kt.initPending {
		rdy := make([]uint64, (n+63)/64)
		for k, c := range pend {
			if c == 0 {
				rdy[k>>6] |= 1 << (uint(k) & 63)
			}
		}
		kt.initReady[si] = rdy
	}
}
