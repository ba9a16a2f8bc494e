// Package ilpsim implements the constrained-resource ILP limit simulator
// of the paper's evaluation (§5): a re-implementation of the modified
// Lam & Wilson trace-driven simulator. A static speculation tree
// (internal/dee) is superimposed on the dynamic execution trace; code may
// execute only where the tree is; the tree moves down one or more branch
// paths when its earliest (root) branch has resolved and the
// instructions along its branch path have fully executed.
//
// # Timing model
//
// Unit instruction latency, minimal data dependencies (flow register
// dependencies after renaming; loads depend on the latest prior store to
// an overlapping address; unlimited PEs inside covered paths — the paper
// constrains branch-path resources, not PEs). An instruction executes in
// the first cycle in which
//
//  1. its branch path is covered by the speculation tree,
//  2. every producer it flow-depends on finished in an earlier cycle, and
//  3. its model-specific control constraints hold (branch serialization
//     for the non-MF models; mispredict squash scope per the CD model).
//
// Coverage works on the window-relative "known direction" vector: a
// pending branch's direction is known if the predictor got it right
// (speculation proceeds down the predicted arc), or once the branch has
// resolved and the misprediction penalty has elapsed (the tree re-forms
// along the actual path, as Levo's DEE-path-to-mainline copy does).
// DEE's static tree additionally covers, per its triangular region, the
// paths reached through a single not-yet-resolved misprediction — that
// is exactly the disjoint eager advantage.
//
// The reduced-control-dependency models (CD) let an instruction ignore a
// mispredicted unresolved branch it is not control dependent on
// (operationally: the trace has already passed the branch's immediate
// postdominator), modelling the static instruction window that does not
// squash control-independent work. The minimal models (CD-MF) further
// remove branch serialization, letting branches resolve out of order.
package ilpsim

import (
	"context"
	"strings"
	"sync"

	"deesim/internal/cache"
	"deesim/internal/cfg"
	"deesim/internal/dee"
	"deesim/internal/isa"
	"deesim/internal/predictor"
	"deesim/internal/runx"
	"deesim/internal/trace"
)

// CDMode selects the control-dependency model.
type CDMode int

const (
	// Restrictive: every instruction after a branch is treated as
	// control dependent on it; branches execute serially.
	Restrictive CDMode = iota
	// CD: reduced control dependencies — squash scope bounded by the
	// branch's immediate postdominator; branches still serialized.
	CD
	// CDMF: minimal control dependencies with multiple flow — CD squash
	// scope and parallel out-of-order branch resolution.
	CDMF
)

func (m CDMode) String() string {
	switch m {
	case Restrictive:
		return ""
	case CD:
		return "-CD"
	case CDMF:
		return "-CD-MF"
	}
	return "-cd?"
}

// Model pairs a speculation strategy with a control-dependency model —
// one of the paper's eight simulated models (Oracle is separate).
type Model struct {
	Strategy dee.Strategy
	CDMode   CDMode
}

func (m Model) String() string { return m.Strategy.String() + m.CDMode.String() }

// Standard paper models (§5.2).
var (
	ModelEE      = Model{dee.EE, Restrictive}
	ModelSP      = Model{dee.SP, Restrictive}
	ModelDEE     = Model{dee.DEE, Restrictive}
	ModelSPCD    = Model{dee.SP, CD}
	ModelDEECD   = Model{dee.DEE, CD}
	ModelSPCDMF  = Model{dee.SP, CDMF}
	ModelDEECDMF = Model{dee.DEE, CDMF}
)

// PaperModels lists the seven constrained models in the paper's legend
// order for Figure 5.
var PaperModels = []Model{
	ModelDEECDMF, ModelSPCDMF, ModelDEECD, ModelSPCD, ModelDEE, ModelSP, ModelEE,
}

// ReferenceModels are the tree-based reference strategies beyond the
// paper's seven, each under CD-MF: the greedy Theorem 1 tree
// (DEE-pure-CD-MF) and the per-branch-probability tree of §3
// (DEE-profile-CD-MF).
var ReferenceModels = []Model{{dee.DEEPure, CDMF}, {dee.DEEProfile, CDMF}}

// ParseModel resolves a model name, ignoring case and surrounding
// space: the String() of any paper or reference model, or a reference
// model's strategy alone (dee-pure, dee-profile) as its alias. It is
// the one model vocabulary of the CLI and the service specs.
func ParseModel(name string) (Model, bool) {
	name = strings.TrimSpace(name)
	for _, m := range PaperModels {
		if strings.EqualFold(name, m.String()) {
			return m, true
		}
	}
	for _, m := range ReferenceModels {
		if strings.EqualFold(name, m.String()) || strings.EqualFold(name, m.Strategy.String()) {
			return m, true
		}
	}
	return Model{}, false
}

// Latencies assigns per-class instruction latencies in cycles. The zero
// value means unit latency throughout — the paper's evaluation
// assumption. The paper defers non-unit latencies to future work (§1);
// Realistic() provides a period-plausible point for that study.
type Latencies struct {
	ALU    int
	Mul    int
	Div    int
	Load   int // overridden per access when a cache is configured
	Store  int
	Branch int
	Jump   int
}

// UnitLatencies is the paper's single-cycle assumption.
func UnitLatencies() Latencies {
	return Latencies{ALU: 1, Mul: 1, Div: 1, Load: 1, Store: 1, Branch: 1, Jump: 1}
}

// RealisticLatencies is a plausible early-90s pipeline: 3-cycle multiply,
// 12-cycle divide, 2-cycle load-use.
func RealisticLatencies() Latencies {
	return Latencies{ALU: 1, Mul: 3, Div: 12, Load: 2, Store: 1, Branch: 1, Jump: 1}
}

func (l Latencies) normalized() Latencies {
	u := UnitLatencies()
	pick := func(v, d int) int {
		if v <= 0 {
			return d
		}
		return v
	}
	return Latencies{
		ALU: pick(l.ALU, u.ALU), Mul: pick(l.Mul, u.Mul), Div: pick(l.Div, u.Div),
		Load: pick(l.Load, u.Load), Store: pick(l.Store, u.Store),
		Branch: pick(l.Branch, u.Branch), Jump: pick(l.Jump, u.Jump),
	}
}

// of returns the latency for an operation.
func (l Latencies) of(op isa.Op) int {
	switch op {
	case isa.MUL:
		return l.Mul
	case isa.DIV, isa.REM:
		return l.Div
	case isa.LW, isa.LB, isa.LBU:
		return l.Load
	case isa.SW, isa.SB:
		return l.Store
	case isa.BEQ, isa.BNE, isa.BLT, isa.BGE, isa.BLEZ, isa.BGTZ:
		return l.Branch
	case isa.J, isa.JAL, isa.JR:
		return l.Jump
	default:
		return l.ALU
	}
}

// DefaultDeadlockLimit is the number of consecutive cycles without
// forward progress (and the margin over the instruction count) after
// which a run is declared deadlocked when Options.DeadlockLimit is zero.
const DefaultDeadlockLimit = 1 << 22

// MemSystem is the memory-system surface the simulator consumes when
// replaying loads and stores: per-access latency, allocation, and
// aggregate statistics. *cache.Cache satisfies it; fault-injection
// wrappers (internal/faultinject) satisfy it structurally without the
// simulator knowing.
type MemSystem interface {
	Access(addr uint32) bool
	Latency(addr uint32) int
	Stats() (accesses, misses uint64, missRate float64)
}

// Options tunes the simulation.
type Options struct {
	// DesignP is the characteristic prediction accuracy used to size the
	// static DEE tree (§3.1 step 1). If zero, the measured accuracy of
	// the run's own predictor on the trace is used — the best-informed
	// design point.
	DesignP float64
	// Penalty is the extra cycles, beyond the resolving cycle, before
	// squashed work restarts after a misprediction (the paper's Levo
	// penalty is one cycle).
	Penalty int
	// StrictMemory serializes every load behind the latest prior store
	// regardless of address (ablation of perfect disambiguation).
	StrictMemory bool
	// DeadlockLimit aborts after this many cycles with no progress
	// (safety net; 0 = DefaultDeadlockLimit, 2^22 cycles).
	DeadlockLimit int

	// Lat sets per-class instruction latencies (zero value = the paper's
	// unit latency).
	Lat Latencies
	// PEs caps the instructions issued per cycle (0 = unlimited, the
	// paper's implicit-PE assumption; it notes the implied maximum was
	// under 200). Issue priority follows window order: the mainline's
	// oldest paths first, as in Levo.
	PEs int
	// Cache, when non-nil, replays loads and stores through a data cache
	// in dynamic order and uses per-access hit/miss latencies for loads
	// (the "suitable memory system" of the paper's future work).
	Cache *cache.Config
	// Mem, when non-nil, takes precedence over Cache and supplies the
	// memory system directly — the hook fault injectors and alternative
	// hierarchies plug into.
	Mem MemSystem
}

// DefaultOptions matches the paper's evaluation assumptions.
func DefaultOptions() Options { return Options{Penalty: 1} }

// Result reports one simulation.
type Result struct {
	Model       Model
	ET          int
	Insts       int
	Cycles      int64
	Speedup     float64 // Insts / Cycles: factor over the 1-IPC sequential machine
	Branches    int     // dynamic conditional branches
	Mispredicts int
	Accuracy    float64 // predictor accuracy over the trace

	// RootResolvedMispredicts counts mispredicted branches that resolved
	// while at the root of the tree (window depth 0); the paper reports
	// 70–80% of mispredict resolutions happening there for DEE-CD-MF.
	RootResolvedMispredicts int

	// TreeML and TreeH record the static tree shape used (DEE models).
	TreeML, TreeH int

	// MaxPEs and AvgPEs record the peak and mean number of instructions
	// issued per cycle — the implicit processing-element demand. §5.1:
	// "The maximum number of PE's used at any time during the
	// simulations is likely to be less than 200 (for 100 branch paths),
	// with the average being much lower."
	MaxPEs int
	AvgPEs float64
}

// RootResolutionRate is RootResolvedMispredicts / Mispredicts.
func (r Result) RootResolutionRate() float64 {
	if r.Mispredicts == 0 {
		return 0
	}
	return float64(r.RootResolvedMispredicts) / float64(r.Mispredicts)
}

const noDep = trace.NoDep

// Sim is a prepared simulation over one trace. Prepare once, run many
// models against the same precomputed dependencies and predictions.
//
// A Sim is safe for concurrent use: after NewContext returns, every
// field is read-only, so any number of goroutines may call Run /
// RunContext / RunUnlimitedContext / Oracle on the same Sim
// simultaneously (e.g. fanning the eight paper models over one prepared
// trace). Per-run mutable state lives in pooled arenas private to each
// call. The concurrent-models race test in sched_test.go asserts
// this contract under the race detector.
//
// A Sim does not keep the trace it was prepared from, nor its data
// dependences: runs read only the tables below (the instruction count,
// the wakeup lists, the per-path wrong-side write sets and branch
// static ids among them), so a caller that drops its *trace.Trace after
// NewContext lets the collector free it while the Sim lives on.
type Sim struct {
	n        int     // dynamic instructions in the trace
	path     []int32 // per instruction: branch path index (conditional branches before it)
	joins    []int32 // per branch ordinal: join position or -1 (see scanBranches)
	correct  []bool  // per dynamic branch, in branch order
	accuracy float64

	// srcMask[k] is the bitmask of architectural registers dynamic
	// instruction k reads; isLoad[k] marks loads. Used with the
	// per-path wrong-side write sets to decide whether an instruction's
	// operands are unambiguous across an unresolved misprediction (the
	// paper's total control dependence).
	srcMask []uint32
	isLoad  []bool
	// profAcc is the measured per-static-branch prediction accuracy
	// (hits/total over the whole trace), indexed by static id — the
	// profile the DEE-profile model's dynamic trees are built from.
	profAcc []float64

	branchPos  []int32 // dynamic position of each conditional branch
	branchOrd  []int32 // per trace position: ordinal of this branch (-1 if not)
	pathBranch []int32 // per path: dynamic position of terminating branch (-1 tail)
	pathSize   []int32 // per path: number of instructions on it
	pathStart  []int32 // path p covers trace positions [pathStart[p], pathStart[p+1])
	// pathWrong[p] is the write set of the side the machine erroneously
	// followed at path p's terminating branch — the opposite of the
	// actual direction — when that branch is mispredicted (zero
	// otherwise: only unknown branches are asked). pathStatic[p] is the
	// branch's static id (-1 for the branchless tail), the DEE-profile
	// model's index into profAcc.
	pathWrong  []cfg.WriteSet
	pathStatic []int32
	opts       Options

	lat           []int32 // per dynamic instruction latency in cycles
	cacheMissRate float64

	// Event-scheduler precomputation (built once in NewContext, read-only
	// afterwards): wakeOff/wakeList form a CSR producer→consumer
	// adjacency over the minimal data dependencies (a consumer appears
	// once per dependency slot, matching the per-slot in-degrees in
	// initPending[0]); they are the Sim's only copy of those
	// dependences, read by the event scheduler and the forward pass.
	// maxLat is the largest per-instruction latency (it sizes the
	// calendar ring).
	wakeOff  []int32
	wakeList []int32
	maxLat   int32

	// Hot-loop companions to the tables above, also read-only after
	// NewContext: pathCorrect[i] reports whether window slot i's guarding
	// branch is absent or correctly predicted; pathJoin[i] caches
	// joinOf(pathBranch[i]) (-1 without a branch); nextBranch[k] is the
	// trace position of the conditional branch after branch k (-1
	// otherwise); misp[k] marks mispredicted branches. initPending and
	// initReady seed a run's dependency counters and ready set (one bit
	// per trace position), indexed [0] for the serialization-free (MF)
	// models and [1] for the serialized ones.
	pathCorrect []bool
	pathJoin    []int32
	nextBranch  []int32
	misp        []bool
	initPending [2][]uint8
	initReady   [2][]uint64

	// oracle runs the unlimited EE-CD-MF pass on first use and caches
	// its result as the Oracle's.
	oracle func() Result
}

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

// NewContext is New with cooperative cancellation: the precompute phases
// (dependency extraction, the table passes, cache warmup) check ctx
// between passes, so a deadline set before a heavy sweep also bounds
// simulator construction.
//
// After the data dependences, every table is built in three passes over
// the trace: one forward pass (forward), the CSR fill of the wakeup
// lists (fillWakeLists), and one backward scan for the per-branch and
// per-path tables (scanBranches). A memory system, when configured,
// replays loads and stores in a fourth, dynamic-order pass. The data
// dependences themselves are a local: once the wakeup lists hold them,
// they are dropped.
func NewContext(ctx context.Context, tr *trace.Trace, pred predictor.Predictor, opts Options) (s *Sim, err error) {
	const stage = "ilpsim.New"
	defer func() {
		if r := recover(); r != nil {
			s, err = nil, runx.FromPanic(r, stage)
		}
	}()
	if tr == nil {
		return nil, runx.Newf(runx.KindInvalidInput, stage, "nil trace")
	}
	if verr := tr.Validate(); verr != nil {
		return nil, &runx.Error{Kind: runx.KindInvalidInput, Stage: stage, Err: verr}
	}
	if pred == nil {
		return nil, runx.Newf(runx.KindInvalidInput, stage, "nil predictor")
	}
	if opts.DeadlockLimit < 0 {
		return nil, runx.Newf(runx.KindInvalidInput, stage, "negative DeadlockLimit %d", opts.DeadlockLimit)
	}
	if opts.DeadlockLimit == 0 {
		opts.DeadlockLimit = DefaultDeadlockLimit
	}
	mem := opts.Mem
	if mem == nil && opts.Cache != nil {
		dc, cerr := cache.New(*opts.Cache)
		if cerr != nil {
			return nil, &runx.Error{Kind: runx.KindInvalidInput, Stage: stage, Err: cerr}
		}
		mem = dc
	}
	if cerr := runx.CtxErr(ctx, stage); cerr != nil {
		return nil, cerr
	}
	s = &Sim{n: len(tr.Ins), opts: opts}
	dd := tr.DataDeps(opts.StrictMemory)
	if cerr := runx.CtxErr(ctx, stage); cerr != nil {
		return nil, cerr
	}
	nb := s.forward(tr, dd, pred, mem == nil)
	s.fillWakeLists(dd)
	s.scanBranches(tr, cfg.Build(tr.Prog), nb)
	if cerr := runx.CtxErr(ctx, stage); cerr != nil {
		return nil, cerr
	}
	if mem != nil {
		s.replayMemory(tr, mem)
	}
	s.oracle = sync.OnceValue(func() Result {
		// A background context never cancels and EE-CD-MF is an
		// unlimited model, so an error here can only be a recovered panic.
		r, err := s.RunUnlimitedContext(context.Background(), Model{dee.EE, CDMF})
		if err != nil {
			panic(err)
		}
		r.ET = -1
		return r
	})
	return s, nil
}

// staticInfo is what the forward pass reads of one static instruction,
// plus that instruction's predictor replay counts.
type staticInfo struct {
	src         uint32 // registers read, $zero excluded
	lat         int32  // latency under Options.Lat
	load        bool
	branch      bool // conditional branch
	hits, total int32
}

// forward is the first pass: in trace order it fills every per-instruction
// table (path index, branch ordinal, source mask, load flag, latency when
// fillLat is set, successor branch, mispredict flag, the initial pending
// counters of both model families) and the per-producer consumer counts
// the CSR fill starts from, and replays the predictor, recording its
// accuracy and the per-static-branch profile. It returns the number of
// conditional branches.
func (s *Sim) forward(tr *trace.Trace, dd *trace.DataDeps, pred predictor.Predictor, fillLat bool) (nb int32) {
	n := s.n
	lat := s.opts.Lat.normalized()
	info := make([]staticInfo, len(tr.Prog.Code))
	for i, in := range tr.Prog.Code {
		si := &info[i]
		for _, r := range in.Src() {
			if r != isa.Zero {
				si.src |= 1 << uint(r)
			}
		}
		si.lat = int32(lat.of(in.Op))
		si.load = isa.ClassOf(in.Op) == isa.ClassLoad
		si.branch = isa.IsCondBranch(in.Op)
	}

	s.path = make([]int32, n)
	s.branchOrd = make([]int32, n)
	s.srcMask = make([]uint32, n)
	s.isLoad = make([]bool, n)
	s.nextBranch = make([]int32, n)
	s.misp = make([]bool, n)
	s.initPending[0] = make([]uint8, n)
	s.initPending[1] = make([]uint8, n)
	// wakeOff[p+2] counts producer p's consumer slots; fillWakeLists turns
	// the counts into offsets. A producer precedes its consumer, so
	// p <= n-2 and p+2 stays in range.
	s.wakeOff = make([]int32, n+1)
	if fillLat {
		s.lat = make([]int32, n)
	}
	hits := 0
	prev := int32(-1) // position of the latest branch
	for k := range tr.Ins {
		din := &tr.Ins[k]
		si := &info[din.Static]
		s.path[k] = nb
		s.branchOrd[k] = -1
		s.nextBranch[k] = -1
		s.srcMask[k] = si.src
		s.isLoad[k] = si.load
		if fillLat {
			s.lat[k] = si.lat
			s.maxLat = max(s.maxLat, si.lat)
		}
		var pend uint8
		for _, p := range [3]int32{dd.Rs[k], dd.Rt[k], dd.Mem[k]} {
			if p != noDep {
				s.wakeOff[p+2]++
				pend++
			}
		}
		s.initPending[0][k] = pend
		if si.branch {
			s.branchOrd[k] = nb
			if nb > 0 {
				pend++ // serialized behind the previous branch
				s.nextBranch[prev] = int32(k)
			}
			ok := pred.Predict(din.Static) == din.Taken
			pred.Update(din.Static, din.Taken)
			s.misp[k] = !ok
			si.total++
			if ok {
				si.hits++
				hits++
			}
			prev = int32(k)
			nb++
		}
		s.initPending[1][k] = pend
	}

	s.accuracy = 1
	if nb > 0 {
		s.accuracy = float64(hits) / float64(nb)
	}
	s.profAcc = make([]float64, len(info))
	for st, si := range info {
		if si.total > 0 {
			s.profAcc[st] = float64(si.hits) / float64(si.total)
		}
	}
	return nb
}

// fillWakeLists is the second pass. It turns the forward pass's consumer
// counts into the CSR offsets of the producer→consumer wakeup lists and
// fills them: wakeList[wakeOff[p]:wakeOff[p+1]] lists (in ascending
// trace order) every instruction with a data-dependency slot on
// producer p. A consumer with two slots on the same producer appears
// twice, matching the per-slot in-degree in initPending, so the event
// scheduler's pending counters decrement consistently. wakeOff[p+1]
// serves as p's fill cursor: it starts at p's first slot and ends at
// p+1's. The same walk sets both families' initial ready bits.
func (s *Sim) fillWakeLists(dd *trace.DataDeps) {
	n := s.n
	for i := 1; i <= n; i++ {
		s.wakeOff[i] += s.wakeOff[i-1]
	}
	s.wakeList = make([]int32, s.wakeOff[n])
	s.initReady = [2][]uint64{make([]uint64, (n+63)/64), make([]uint64, (n+63)/64)}
	for k := 0; k < n; k++ {
		for _, p := range [3]int32{dd.Rs[k], dd.Rt[k], dd.Mem[k]} {
			if p != noDep {
				s.wakeList[s.wakeOff[p+1]] = int32(k)
				s.wakeOff[p+1]++
			}
		}
		for si := range s.initReady {
			if s.initPending[si][k] == 0 {
				s.initReady[si][k>>6] |= 1 << (uint(k) & 63)
			}
		}
	}
}

// scanBranches is the third pass, one backward scan over the trace that
// fills the nb per-branch tables and the per-path ones. A branch's join
// is the first trace position past it at which control reaches its
// immediate postdominator, or -1 when unknown (JR-crossed or off-trace);
// instructions at or after the join are control independent of the
// branch. The scan keeps the next occurrence of every static
// instruction in a dense table; a branch's side write sets are computed
// at its static's first visit (its last occurrence in the trace). A
// conditional branch ends every path but a branchless tail.
func (s *Sim) scanBranches(tr *trace.Trace, g *cfg.Graph, nb int32) {
	ins := tr.Ins
	n := int32(len(ins))
	np := nb
	if !ins[n-1].IsBranch() {
		np++ // the branchless tail
	}
	s.joins = make([]int32, nb)
	s.branchPos = make([]int32, nb)
	s.correct = make([]bool, nb)
	s.pathBranch = make([]int32, np)
	s.pathSize = make([]int32, np)
	s.pathStart = make([]int32, np+1)
	s.pathCorrect = make([]bool, np)
	s.pathJoin = make([]int32, np)
	s.pathWrong = make([]cfg.WriteSet, np)
	s.pathStatic = make([]int32, np)
	if np > nb {
		s.pathBranch[nb], s.pathCorrect[nb], s.pathJoin[nb], s.pathStatic[nb] = -1, true, -1, -1
	}
	nextOcc := make([]int32, len(tr.Prog.Code))        // per static id: next trace position, or -1
	side := make([][2]cfg.WriteSet, len(tr.Prog.Code)) // per branch static id: taken, fall side writes
	for i := range nextOcc {
		nextOcc[i] = -1
	}
	end := n // one past the end of the path after the branch being visited
	ord := nb
	for i := n - 1; i >= 0; i-- {
		din := &ins[i]
		if din.IsBranch() {
			ord--
			join := int32(-1)
			if ip := g.IPdom(din.Static); ip >= 0 {
				join = nextOcc[ip]
			}
			if nextOcc[din.Static] < 0 {
				taken, fall := g.SideWrites(din.Static)
				side[din.Static] = [2]cfg.WriteSet{taken, fall}
			}
			ok := !s.misp[i]
			if !ok {
				wrong := 0 // actually fell through: the machine went down the taken side
				if din.Taken {
					wrong = 1
				}
				s.pathWrong[ord] = side[din.Static][wrong]
			}
			s.joins[ord], s.branchPos[ord], s.correct[ord] = join, i, ok
			s.pathBranch[ord], s.pathCorrect[ord], s.pathJoin[ord], s.pathStatic[ord] = i, ok, join, din.Static
			if ord+1 < np {
				s.pathSize[ord+1] = end - (i + 1)
			}
			end = i + 1
		}
		nextOcc[din.Static] = i
	}
	s.pathSize[0] = end
	for p, sz := range s.pathSize {
		s.pathStart[p+1] = s.pathStart[p] + sz
	}
}

// replayMemory assigns per-instruction latencies by replaying loads and
// stores through the memory system in dynamic order — the standard
// trace-driven warmup — so a load takes the system's per-access
// latency.
func (s *Sim) replayMemory(tr *trace.Trace, mem MemSystem) {
	lat := s.opts.Lat.normalized()
	s.lat = make([]int32, s.n)
	for i, din := range tr.Ins {
		l := lat.of(din.Op)
		switch isa.ClassOf(din.Op) {
		case isa.ClassLoad:
			l = mem.Latency(din.MemAddr)
		case isa.ClassStore:
			mem.Access(din.MemAddr) // stores allocate but retire off the critical path
		}
		if l < 1 {
			l = 1 // a faulty memory system cannot bend time backwards
		}
		s.lat[i] = int32(l)
		s.maxLat = max(s.maxLat, s.lat[i])
	}
	_, _, s.cacheMissRate = mem.Stats()
}

// CacheMissRate reports the data-cache miss rate when a cache is
// configured (0 otherwise).
func (s *Sim) CacheMissRate() float64 { return s.cacheMissRate }

// joinOf returns the join position of the dynamic conditional branch at
// trace position bpos (-1 when unknown).
func (s *Sim) joinOf(bpos int32) int32 { return s.joins[s.branchOrd[bpos]] }

// Accuracy reports the measured predictor accuracy on this trace.
func (s *Sim) Accuracy() float64 { return s.accuracy }

// Insts reports the number of dynamic instructions in the prepared
// trace.
func (s *Sim) Insts() int { return s.n }

// designP returns the characteristic accuracy used to size static trees.
func (s *Sim) designP() float64 {
	p := s.opts.DesignP
	if p == 0 {
		p = s.accuracy
	}
	// The static-tree formulas need p strictly inside (0.5, 1).
	if p > 0.995 {
		p = 0.995
	}
	if p < 0.505 {
		p = 0.505
	}
	return p
}

// Oracle returns the paper's Oracle datum: eager execution with
// unlimited resources, branches unconstraining — a pure dataflow
// schedule over minimal data dependencies. That is exactly the
// unlimited EE-CD-MF pass (RunUnlimited), whose Result it returns with
// ET -1. It is computed on the first call and shared by every later
// one, so a sweep asking for it once per cell pays for one pass per Sim.
func (s *Sim) Oracle() Result { return s.oracle() }

// Run simulates one model at the given branch-path resources. In
// addition to the paper's closed-form shapes (SP, EE, DEE), two
// tree-based reference strategies are supported: dee.DEEPure (the
// Theorem-1 greedy tree at the uniform design accuracy) and
// dee.DEEProfile (the "theoretically perfect" dynamic tree of §3,
// rebuilt from per-branch profiled accuracies whenever the window
// moves — the computation the paper deems impractical in hardware,
// simulated here to quantify the heuristic's loss).
func (s *Sim) Run(m Model, et int) (Result, error) {
	return s.RunContext(context.Background(), m, et)
}

// attribute fills model/ET/cycle attribution on a structured error so a
// failure inside a large sweep can be located without re-running it.
func attribute(e *runx.Error, m Model, et int, cycle int64) *runx.Error {
	if e.Model == "" {
		e.Model = m.String()
	}
	if e.ET == 0 {
		e.ET = et
	}
	if e.Cycle == 0 {
		e.Cycle = cycle
	}
	return e
}

// RunContext is Run with cooperative cancellation and a hardened cycle
// loop: the context is consulted every few thousand cycles (deadline and
// SIGINT turn into typed *runx.Error values), a progress watchdog
// converts stalls into structured deadlock errors carrying a
// cycle/window/heap snapshot, and any panic is recovered at this
// boundary and returned as a *runx.Error with the stack attached.
//
// A closed-form model (SP, EE, DEE) without a PEs cap runs as the
// forward constraint pass (unlimited.go); a PEs cap or a tree strategy
// runs on the event-driven ready-set scheduler (sched.go). The retired
// scan-every-cycle loop lives on in the package's tests as the
// differential oracle; all three produce cycle-for-cycle identical
// Results, errors included. RunContext is safe to call concurrently
// from multiple goroutines on one Sim.
func (s *Sim) RunContext(ctx context.Context, m Model, et int) (Result, error) {
	const stage = "ilpsim.Run"
	if et < 1 {
		return Result{}, attribute(runx.Newf(runx.KindInvalidInput, stage, "branch-path resources ET must be >= 1, got %d", et), m, et, 0)
	}
	if s.opts.PEs == 0 && closedForm(m) {
		return s.runForward(ctx, m, et)
	}
	return s.runEvent(ctx, m, et)
}

// resultHeader is the part of a Result that does not depend on the
// schedule.
func (s *Sim) resultHeader(m Model, et int) Result {
	res := Result{Model: m, ET: et, Insts: s.n, Branches: len(s.branchPos), Accuracy: s.accuracy}
	for _, ok := range s.correct {
		if !ok {
			res.Mispredicts++
		}
	}
	return res
}

// runSetup builds the per-run invariants of a windowed run: the static
// tree shape, the Result header, and the window depth bound. The event
// scheduler, the forward pass and the tests' legacy loop share it.
func (s *Sim) runSetup(m Model, et int) (shape dee.Shape, res Result, maxDepth int) {
	profile := m.Strategy == dee.DEEProfile
	if !profile {
		shape = dee.NewShape(m.Strategy, s.designP(), et)
	}
	res = s.resultHeader(m, et)
	res.TreeML, res.TreeH = shape.ML, shape.H
	maxDepth = et
	if !profile {
		maxDepth = shape.MaxDepth()
	}
	return shape, res, maxDepth
}
