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
// A Sim is safe for concurrent use: after NewContext or RecordContext
// returns, every field is read-only except the event kernel's tables,
// which the first event-kernel run derives once (kernel, under
// kernOnce), so any number of goroutines may call Run / RunContext /
// RunUnlimitedContext / Oracle on the same Sim simultaneously (e.g.
// fanning the eight paper models over one prepared trace). Per-run
// mutable state lives in pooled arenas private to each call. The
// concurrent-models race tests in sched_test.go assert this contract
// under the race detector.
//
// A Sim does not keep the trace it was prepared from: runs read only
// the tables below, so a caller that drops its *trace.Trace after
// NewContext lets the collector free it while the Sim lives on.
type Sim struct {
	n    int // dynamic instructions in the trace
	opts Options

	accuracy              float64
	branches, mispredicts int     // dynamic conditional branches, and those mispredicted
	oracle                Result  // the Oracle, computed by the build
	cacheMissRate         float64 // 0 without a memory system

	// Per instruction k: prod[k] holds the producers of its rs and rt
	// operands and of its loaded value (noDep for none; see
	// trace.Producers), the minimal data dependences the forward pass
	// pulls finish times along; lat[k] is its latency in cycles, maxLat
	// the largest (it bounds a run's times and sizes the event kernel's
	// calendar ring). srcMask[k] is the bitmask of architectural
	// registers it reads and isLoad[k] marks loads: with the per-path
	// wrong-side write sets they decide whether an instruction's operands
	// are unambiguous across an unresolved misprediction (the paper's
	// total control dependence).
	prod    [][3]int32
	lat     []int32
	maxLat  int32
	srcMask []uint32
	isLoad  []bool
	// profAcc is the measured per-static-branch prediction accuracy
	// (hits/total over the whole trace), indexed by static id — the
	// profile the DEE-profile model's dynamic trees are built from.
	profAcc []float64

	// Per path p (the trace's branch paths, each ending at a conditional
	// branch but a branchless tail): p covers trace positions
	// [pathStart[p], pathStart[p+1]); pathBranch[p] is its terminating
	// branch's position (-1 on the tail) and pathStatic[p] that branch's
	// static id (-1 on the tail), the DEE-profile model's index into
	// profAcc; pathCorrect[p] reports whether the branch is absent or
	// correctly predicted. pathJoin[p] is the branch's join: the first
	// trace position past it at which control reaches its immediate
	// postdominator, or -1 when unknown (JR-crossed or off-trace);
	// instructions at or after the join are control independent of the
	// branch. pathWrong[p] is the write set of the side the machine
	// erroneously followed at the branch — the opposite of the actual
	// direction — when it is mispredicted (zero otherwise: only unknown
	// branches are asked).
	pathStart   []int32
	pathBranch  []int32
	pathStatic  []int32
	pathCorrect []bool
	pathJoin    []int32
	pathWrong   []cfg.WriteSet

	// The event kernel's tables, derived on its first run.
	kernOnce sync.Once
	kern     kernelTables
}

// CacheMissRate reports the data-cache miss rate when a cache is
// configured (0 otherwise).
func (s *Sim) CacheMissRate() float64 { return s.cacheMissRate }

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
// ET -1. The build computes it, pulling each instruction's finish from
// its producers', so asking for it costs nothing.
func (s *Sim) Oracle() Result { return s.oracle }

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
	return Result{Model: m, ET: et, Insts: s.n, Branches: s.branches, Mispredicts: s.mispredicts, Accuracy: s.accuracy}
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
