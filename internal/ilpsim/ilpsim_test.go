package ilpsim

import (
	"runtime"
	"slices"
	"testing"
	"time"

	"deesim/internal/asm"
	"deesim/internal/bench"
	"deesim/internal/dee"
	"deesim/internal/predictor"
	"deesim/internal/trace"
)

func mustTrace(t *testing.T, src string) *trace.Trace {
	t.Helper()
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trace.Record(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func simOf(t *testing.T, src string) *Sim {
	t.Helper()
	return MustNew(mustTrace(t, src), predictor.NewTwoBit(), DefaultOptions())
}

func run(t *testing.T, s *Sim, m Model, et int) Result {
	t.Helper()
	r, err := s.Run(m, et)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// --- hand-computable micro-traces ---

// TestOracleIndependent: N independent instructions all execute in one
// cycle under the oracle.
func TestOracleIndependent(t *testing.T) {
	s := simOf(t, `
    li $t0, 1
    li $t1, 2
    li $t2, 3
    li $t3, 4
    halt
`)
	r := s.Oracle()
	if r.Cycles != 1 {
		t.Errorf("oracle cycles = %d, want 1", r.Cycles)
	}
	if r.Speedup != 5 {
		t.Errorf("oracle speedup = %v, want 5", r.Speedup)
	}
}

// TestOracleChain: a serial dependence chain is executed one per cycle.
func TestOracleChain(t *testing.T) {
	s := simOf(t, `
    li   $t0, 1
    addi $t0, $t0, 1
    addi $t0, $t0, 1
    addi $t0, $t0, 1
    halt
`)
	r := s.Oracle()
	// halt is independent; chain is 4 long.
	if r.Cycles != 4 {
		t.Errorf("oracle cycles = %d, want 4", r.Cycles)
	}
}

// TestOracleMemoryFlow: a load depends on the prior store to the same
// address but not on stores to other addresses.
func TestOracleMemoryFlow(t *testing.T) {
	sameAddr := simOf(t, `
    la $t0, buf
    li $t1, 9
    sw $t1, 0($t0)
    lw $t2, 0($t0)
    halt
.data
buf: .space 8
`)
	// la (lui+ori chain: 2) -> sw at 3 (needs t1@1... li t1 is cycle 1;
	// sw needs t0 (cycle 2) and t1 -> cycle 3; lw depends on sw -> 4.
	if r := sameAddr.Oracle(); r.Cycles != 4 {
		t.Errorf("same-address cycles = %d, want 4", r.Cycles)
	}
	diffAddr := simOf(t, `
    la $t0, buf
    li $t1, 9
    sw $t1, 0($t0)
    lw $t2, 4($t0)
    halt
.data
buf: .space 8
`)
	// lw is independent of the store: needs only t0 -> cycle 3.
	if r := diffAddr.Oracle(); r.Cycles != 3 {
		t.Errorf("different-address cycles = %d, want 3", r.Cycles)
	}
}

// TestBranchSerialization: under non-MF models branches resolve one per
// cycle even when data-independent.
func TestBranchSerialization(t *testing.T) {
	// Four independent never-taken branches (t0 = 0 after li).
	src := `
    li $t0, 0
    bgtz $t0, end
    bgtz $t0, end
    bgtz $t0, end
    bgtz $t0, end
end:
    halt
`
	s := simOf(t, src)
	sp := run(t, s, ModelSP, 64)
	// Branch k resolves at cycle k+1 (after li at 1): ~5 cycles.
	if sp.Cycles < 5 {
		t.Errorf("SP cycles = %d, want >= 5 (serialized branches)", sp.Cycles)
	}
	mf := run(t, s, ModelSPCDMF, 64)
	if mf.Cycles >= sp.Cycles {
		t.Errorf("MF cycles %d not below serialized %d", mf.Cycles, sp.Cycles)
	}
}

// TestWindowLimitsLookahead: a program of mutually independent
// serial-chain paths executes at a rate bounded by how many paths the
// window covers at once.
func TestWindowLimitsLookahead(t *testing.T) {
	// 20 blocks; each block is an independent 8-deep dependence chain
	// ending in an always-taken branch to the next block. With a window
	// of D paths, ~D chains overlap: total ≈ 20/D × 8 cycles.
	var sb []byte
	for i := 0; i < 20; i++ {
		sb = append(sb, []byte("    li $t1, 1\n")...)
		for j := 0; j < 7; j++ {
			sb = append(sb, []byte("    addi $t1, $t1, 1\n")...)
		}
		sb = append(sb, []byte("    blez $zero, b"+string(rune('a'+i))+"\nb"+string(rune('a'+i))+":\n")...)
	}
	sb = append(sb, []byte("    halt\n")...)
	tr := mustTrace(t, string(sb))
	s := MustNew(tr, &perfectPredictor{tr: tr}, DefaultOptions())
	small := run(t, s, ModelSPCDMF, 2)
	big := run(t, s, ModelSPCDMF, 32)
	if small.Cycles < 2*big.Cycles {
		t.Errorf("window 2 (%d cycles) not much slower than window 32 (%d)", small.Cycles, big.Cycles)
	}
	if big.Cycles > 16 {
		t.Errorf("window 32 took %d cycles; chains should fully overlap", big.Cycles)
	}
}

// TestPerfectPredictionNoStalls: with every branch predicted correctly,
// SP coverage never truncates; speedup approaches the serialization
// limit.
func TestPerfectPredictionNoStalls(t *testing.T) {
	src := `
    li $t0, 200
loop:
    addi $t0, $t0, -1
    bgtz $t0, loop
    halt
`
	tr := mustTrace(t, src)
	// Oracle-direction predictor: feed actual outcomes.
	var dirs []bool
	for _, d := range tr.Ins {
		if d.IsBranch() {
			dirs = append(dirs, d.Taken)
		}
	}
	fixed := &perfectPredictor{tr: tr}
	s := MustNew(tr, fixed, DefaultOptions())
	if s.Accuracy() != 1 {
		t.Fatalf("perfect predictor accuracy = %v", s.Accuracy())
	}
	r := run(t, s, ModelSP, 64)
	if r.Mispredicts != 0 {
		t.Errorf("mispredicts = %d", r.Mispredicts)
	}
	// The counter chain serializes at 1 iteration/cycle: ~N cycles for
	// 2N instructions -> speedup ≈ 2.
	if r.Speedup < 1.8 {
		t.Errorf("speedup %v under perfect prediction, want ≈2", r.Speedup)
	}
	_ = dirs
}

// perfectPredictor predicts every branch's actual direction by replaying
// the trace.
type perfectPredictor struct {
	tr  *trace.Trace
	idx int
	brs []int32
}

func (p *perfectPredictor) Name() string { return "perfect" }
func (p *perfectPredictor) Predict(pc int32) bool {
	if p.brs == nil {
		for i, d := range p.tr.Ins {
			if d.IsBranch() {
				p.brs = append(p.brs, int32(i))
			}
		}
	}
	taken := p.tr.Ins[p.brs[p.idx]].Taken
	p.idx++
	return taken
}
func (p *perfectPredictor) Update(int32, bool) {}

// TestMispredictStallsSP: with an always-taken predictor on a
// never-taken branch, everything behind the branch waits for its
// resolution under SP.
func TestMispredictStallsSP(t *testing.T) {
	src := `
    li   $t0, 0
    li   $t1, 1
    bgtz $t0, off          # never taken; always-taken predicts wrong
    addi $t2, $t1, 1
    addi $t3, $t1, 2
off:
    halt
`
	tr := mustTrace(t, src)
	s := MustNew(tr, predictor.AlwaysTaken{}, DefaultOptions())
	r := run(t, s, ModelSP, 8)
	if r.Mispredicts != 1 {
		t.Fatalf("mispredicts = %d, want 1", r.Mispredicts)
	}
	// Timeline: cycle 1 executes li, li and the branch (its source t0 is
	// ready... t0 produced in cycle 1, so branch waits: cycle 2).
	// Branch resolves cycle 2; penalty 1 -> dependents usable from
	// cycle 4; addi/addi/halt at 4. Total 4 cycles.
	if r.Cycles != 4 {
		t.Errorf("cycles = %d, want 4", r.Cycles)
	}
	// With penalty 0 the restart happens at cycle 3.
	s0 := MustNew(tr, predictor.AlwaysTaken{}, Options{Penalty: 0})
	r0 := run(t, s0, ModelSP, 8)
	if r0.Cycles != 3 {
		t.Errorf("penalty-0 cycles = %d, want 3", r0.Cycles)
	}
}

// TestDEECoversOneMispredict: the same scenario under DEE with a side
// path executes the fall-through before the branch resolves.
func TestDEECoversOneMispredict(t *testing.T) {
	// Build a trace with enough branch paths for a DEE region and one
	// early misprediction. Use a low design accuracy so the static tree
	// has a side path at ET=8.
	src := `
    li   $t0, 0
    li   $t1, 1
    bgtz $t0, off          # never taken; mispredicted
    addi $t2, $t1, 1
    bgtz $t0, off
    addi $t3, $t1, 2
    bgtz $t0, off
    addi $t4, $t1, 3
off:
    halt
`
	tr := mustTrace(t, src)
	opts := DefaultOptions()
	opts.DesignP = 0.7 // forces a DEE region at small ET
	mk := func() *Sim {
		return MustNew(tr, &predictor.Fixed{Directions: []bool{true, false, false}}, opts)
	}
	// First branch mispredicted (predicted taken, actually not taken);
	// remaining two predicted correctly.
	sDee := mk()
	dee := run(t, sDee, ModelDEE, 8)
	sSp := mk()
	sp := run(t, sSp, ModelSP, 8)
	if dee.TreeH == 0 {
		t.Fatalf("DEE tree has no side region (ML=%d H=%d)", dee.TreeML, dee.TreeH)
	}
	if dee.Cycles >= sp.Cycles {
		t.Errorf("DEE (%d cycles) not faster than SP (%d) on covered mispredict", dee.Cycles, sp.Cycles)
	}
}

// TestEEPredictorInvariance: the restrictive EE model's schedule ignores
// prediction entirely — both sides are in the tree.
func TestEEPredictorInvariance(t *testing.T) {
	prog, err := bench.BuildSynthetic(bench.SyntheticConfig{
		Iterations: 300, BranchesPerIter: 3, Bias: 70, Seed: 11, Work: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trace.Record(prog, 0)
	if err != nil {
		t.Fatal(err)
	}
	a := MustNew(tr, predictor.NewTwoBit(), DefaultOptions())
	b := MustNew(tr, predictor.AlwaysTaken{}, DefaultOptions())
	ra := run(t, a, ModelEE, 32)
	rb := run(t, b, ModelEE, 32)
	if ra.Cycles != rb.Cycles {
		t.Errorf("EE cycles differ across predictors: %d vs %d", ra.Cycles, rb.Cycles)
	}
}

// --- structural invariants on real workloads ---

func workloadSims(t *testing.T) map[string]*Sim {
	t.Helper()
	sims := make(map[string]*Sim)
	for _, name := range []string{"compress", "xlisp"} {
		w, err := bench.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := w.Inputs[0].Build(1)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := trace.Record(prog, 60_000)
		if err != nil {
			t.Fatal(err)
		}
		sims[name] = MustNew(tr, predictor.NewTwoBit(), DefaultOptions())
	}
	return sims
}

// TestModelDominance: relaxing a constraint can only help — CD ≥
// restrictive and CD-MF ≥ CD for both strategies, and every model ≤
// Oracle.
func TestModelDominance(t *testing.T) {
	for name, s := range workloadSims(t) {
		oracle := s.Oracle().Speedup
		for _, strat := range []dee.Strategy{dee.SP, dee.DEE} {
			for _, et := range []int{8, 64} {
				restr := run(t, s, Model{strat, Restrictive}, et)
				cd := run(t, s, Model{strat, CD}, et)
				cdmf := run(t, s, Model{strat, CDMF}, et)
				if cd.Speedup < restr.Speedup-1e-9 {
					t.Errorf("%s %v ET=%d: CD %.3f < restrictive %.3f", name, strat, et, cd.Speedup, restr.Speedup)
				}
				if cdmf.Speedup < cd.Speedup-1e-9 {
					t.Errorf("%s %v ET=%d: CD-MF %.3f < CD %.3f", name, strat, et, cdmf.Speedup, cd.Speedup)
				}
				if cdmf.Speedup > oracle+1e-9 {
					t.Errorf("%s %v ET=%d: CD-MF %.3f exceeds oracle %.3f", name, strat, et, cdmf.Speedup, oracle)
				}
			}
		}
	}
}

// TestDEEAtLeastSP: with the same control-dependency model and
// resources, the DEE static tree covers at least the SP mainline's
// prefix up to its (shorter) ML plus side paths; empirically it must not
// lose to SP on the suite (the paper's central claim at equal ET).
func TestDEEAtLeastSP(t *testing.T) {
	for name, s := range workloadSims(t) {
		for _, cd := range []CDMode{Restrictive, CD, CDMF} {
			for _, et := range []int{8, 32, 128} {
				sp := run(t, s, Model{dee.SP, cd}, et)
				de := run(t, s, Model{dee.DEE, cd}, et)
				if de.Speedup < sp.Speedup*0.98 {
					t.Errorf("%s %v ET=%d: DEE %.3f below SP %.3f", name, cd, et, de.Speedup, sp.Speedup)
				}
			}
		}
	}
}

// TestDEEEqualsSPAtSmallET: the static tree degenerates to the SP chain
// when the DEE region is empty (the paper's coincident curves at and
// below 16 paths with ~90% accuracy).
func TestDEEEqualsSPAtSmallET(t *testing.T) {
	s := workloadSims(t)["compress"]
	for _, et := range []int{8, 16} {
		sp := run(t, s, ModelSP, et)
		de := run(t, s, ModelDEE, et)
		if de.TreeH != 0 {
			t.Errorf("ET=%d: DEE region unexpectedly non-empty (h=%d, accuracy %.3f)", et, de.TreeH, s.Accuracy())
			continue
		}
		if sp.Cycles != de.Cycles {
			t.Errorf("ET=%d: DEE (%d cycles) != SP (%d) despite degenerate tree", et, de.Cycles, sp.Cycles)
		}
	}
}

// TestResourceMonotonicity: more branch-path resources never slow a
// model down materially (the DEE heuristic reshapes the tree, so allow
// a small tolerance).
func TestResourceMonotonicity(t *testing.T) {
	for name, s := range workloadSims(t) {
		for _, m := range PaperModels {
			prev := 0.0
			for _, et := range []int{8, 16, 32, 64, 128} {
				r := run(t, s, m, et)
				if r.Speedup < prev*0.95 {
					t.Errorf("%s %v: speedup dropped from %.3f to %.3f at ET=%d", name, m, prev, r.Speedup, et)
				}
				if r.Speedup > prev {
					prev = r.Speedup
				}
			}
		}
	}
}

// TestPenaltyMonotonicity: a larger misprediction penalty never helps.
func TestPenaltyMonotonicity(t *testing.T) {
	w, _ := bench.ByName("compress")
	prog, err := w.Inputs[0].Build(1)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trace.Record(prog, 40_000)
	if err != nil {
		t.Fatal(err)
	}
	prev := int64(-1)
	for _, pen := range []int{0, 1, 3, 8} {
		s := MustNew(tr, predictor.NewTwoBit(), Options{Penalty: pen})
		r := run(t, s, ModelDEECDMF, 64)
		if prev >= 0 && r.Cycles < prev {
			t.Errorf("penalty %d: cycles %d below smaller penalty's %d", pen, r.Cycles, prev)
		}
		prev = r.Cycles
	}
}

// TestStrictMemoryHurts: serializing loads behind all stores can only
// lengthen the schedule.
func TestStrictMemoryHurts(t *testing.T) {
	w, _ := bench.ByName("compress")
	prog, err := w.Inputs[0].Build(1)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trace.Record(prog, 40_000)
	if err != nil {
		t.Fatal(err)
	}
	rel := MustNew(tr, predictor.NewTwoBit(), DefaultOptions())
	strictOpts := DefaultOptions()
	strictOpts.StrictMemory = true
	str := MustNew(tr, predictor.NewTwoBit(), strictOpts)
	a := rel.Oracle()
	b := str.Oracle()
	if b.Speedup > a.Speedup {
		t.Errorf("strict memory oracle %.3f above relaxed %.3f", b.Speedup, a.Speedup)
	}
	ra := run(t, rel, ModelDEECDMF, 64)
	rb := run(t, str, ModelDEECDMF, 64)
	if rb.Speedup > ra.Speedup+1e-9 {
		t.Errorf("strict memory DEE-CD-MF %.3f above relaxed %.3f", rb.Speedup, ra.Speedup)
	}
}

// TestRootResolutionStat: most mispredict resolutions happen at the tree
// root (the paper reports 70–80% for DEE-CD-MF; our band is wider but
// the root must dominate any single other depth).
func TestRootResolutionStat(t *testing.T) {
	s := workloadSims(t)["compress"]
	r := run(t, s, ModelDEECDMF, 64)
	if r.Mispredicts == 0 {
		t.Skip("no mispredicts in truncated trace")
	}
	if rate := r.RootResolutionRate(); rate < 0.3 {
		t.Errorf("root resolution rate %.2f, expected the root to dominate", rate)
	}
}

// TestDEEPureRunnable: the Theorem-1 greedy tree simulates and tracks
// the static heuristic closely (they select nearly the same probability
// mass at the same design accuracy).
func TestDEEPureRunnable(t *testing.T) {
	s := workloadSims(t)["compress"]
	for _, et := range []int{8, 64} {
		pure := run(t, s, Model{dee.DEEPure, CDMF}, et)
		heur := run(t, s, Model{dee.DEE, CDMF}, et)
		if pure.Speedup <= 0 {
			t.Fatalf("ET=%d: DEE-pure speedup %v", et, pure.Speedup)
		}
		ratio := pure.Speedup / heur.Speedup
		if ratio < 0.7 || ratio > 1.5 {
			t.Errorf("ET=%d: DEE-pure %.2f vs heuristic %.2f — implausible gap", et, pure.Speedup, heur.Speedup)
		}
		t.Logf("ET=%d: pure %.3f, heuristic %.3f", et, pure.Speedup, heur.Speedup)
	}
}

// TestDEEProfileRunnable: the "theoretically perfect" dynamic
// per-branch-probability tree simulates; the paper expects its gain over
// the heuristic to be modest ("the marginal performance gain over the
// following heuristic is not likely to be great").
func TestDEEProfileRunnable(t *testing.T) {
	s := workloadSims(t)["xlisp"]
	for _, et := range []int{16, 64} {
		prof := run(t, s, Model{dee.DEEProfile, CDMF}, et)
		heur := run(t, s, Model{dee.DEE, CDMF}, et)
		if prof.Speedup <= 0 {
			t.Fatalf("ET=%d: DEE-profile speedup %v", et, prof.Speedup)
		}
		ratio := prof.Speedup / heur.Speedup
		if ratio < 0.6 || ratio > 2.5 {
			t.Errorf("ET=%d: DEE-profile %.2f vs heuristic %.2f — implausible gap", et, prof.Speedup, heur.Speedup)
		}
		t.Logf("ET=%d: profile %.3f, heuristic %.3f (gain %.1f%%)", et, prof.Speedup, heur.Speedup, 100*(ratio-1))
	}
}

// TestDEEPureRestrictiveMatchesCovered: under the restrictive model the
// pure tree's coverage must agree with Shape.Covered semantics; a
// degenerate high-accuracy tree equals SP.
func TestDEEPureHighAccuracyNearSP(t *testing.T) {
	// With near-perfect design accuracy the greedy tree is the SP chain.
	w, _ := bench.ByName("compress")
	prog, err := w.Inputs[0].Build(1)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trace.Record(prog, 30_000)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.DesignP = 0.995
	s := MustNew(tr, predictor.NewTwoBit(), opts)
	pure := run(t, s, Model{dee.DEEPure, Restrictive}, 16)
	sp := run(t, s, Model{dee.SP, Restrictive}, 16)
	if pure.Cycles != sp.Cycles {
		t.Errorf("DEE-pure at p=0.995 (%d cycles) differs from SP (%d)", pure.Cycles, sp.Cycles)
	}
}

// TestResultBookkeeping: instruction, branch and accuracy bookkeeping
// is consistent.
func TestResultBookkeeping(t *testing.T) {
	s := workloadSims(t)["xlisp"]
	r := run(t, s, ModelSP, 16)
	if r.Insts <= 0 || r.Branches <= 0 || r.Branches > r.Insts {
		t.Errorf("bookkeeping: %+v", r)
	}
	wantMis := 0
	for _, et := range []int{8, 256} {
		r2 := run(t, s, ModelDEECDMF, et)
		if wantMis == 0 {
			wantMis = r2.Mispredicts
		} else if r2.Mispredicts != wantMis {
			t.Errorf("mispredict count varies with ET: %d vs %d", r2.Mispredicts, wantMis)
		}
		if r2.RootResolvedMispredicts > r2.Mispredicts {
			t.Errorf("root resolutions %d exceed mispredicts %d", r2.RootResolvedMispredicts, r2.Mispredicts)
		}
	}
	if acc := float64(r.Branches-r.Mispredicts) / float64(r.Branches); acc < r.Accuracy-0.001 || acc > r.Accuracy+0.001 {
		t.Errorf("accuracy %v inconsistent with mispredicts (%v)", r.Accuracy, acc)
	}
}

// TestSimDropsItsTrace: a prepared Sim keeps nothing of the trace it
// was built from, so the trace is collectable while the Sim lives on,
// and the Sim still runs every model family.
func TestSimDropsItsTrace(t *testing.T) {
	prog, err := bench.BuildSynthetic(bench.SyntheticConfig{Iterations: 400, BranchesPerIter: 3, Bias: 80, Seed: 9, Work: 3})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trace.Record(prog, 20_000)
	if err != nil {
		t.Fatal(err)
	}
	n := tr.Len()
	collected := make(chan struct{})
	runtime.SetFinalizer(tr, func(*trace.Trace) { close(collected) })
	s := MustNew(tr, predictor.NewTwoBit(), DefaultOptions())
	tr = nil
	deadline := time.Now().Add(10 * time.Second)
	for done := false; !done; {
		runtime.GC()
		select {
		case <-collected:
			done = true
		case <-time.After(10 * time.Millisecond):
			if time.Now().After(deadline) {
				t.Fatal("the trace was not collected while its Sim was alive")
			}
		}
	}
	if s.Insts() != n {
		t.Errorf("Insts() = %d, want %d", s.Insts(), n)
	}
	for _, m := range []Model{ModelSPCD, ModelDEECDMF, ModelEE, {dee.DEEProfile, CD}} {
		if r := run(t, s, m, 16); r.Insts != n {
			t.Errorf("%v: %d instructions, want %d", m, r.Insts, n)
		}
	}
	if _, err := s.RunUnlimited(ModelDEECD); err != nil {
		t.Fatal(err)
	}
}

// maxRetainedPerInst bounds the live heap a prepared Sim keeps per
// instruction on TestSimRetainedBytes' trace. It reads 36.1 B: the
// per-instruction tables and the wakeup lists, plus the per-branch and
// per-path tables. A Sim that also kept the trace's data dependences
// (Rs/Rt/Mem, 12 B per instruction) read 48.1 B.
const maxRetainedPerInst = 42.0

// TestSimRetainedBytes prepares a Sim on a fixed synthetic trace, drops
// the trace, and measures the live heap the Sim keeps per instruction.
// It guards the Sim's memory layout: a table that grows, or one that is
// kept when the wakeup lists already hold its contents, fails it.
func TestSimRetainedBytes(t *testing.T) {
	prog, err := bench.BuildSynthetic(bench.SyntheticConfig{Iterations: 40_000, BranchesPerIter: 2, Bias: 85, Seed: 1, Work: 4})
	if err != nil {
		t.Fatal(err)
	}
	liveHeap := func() int64 {
		// Two collections: the first only moves sync.Pool contents to
		// the victim cache; the second frees them.
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	base := liveHeap()
	tr, err := trace.Record(prog, 200_000)
	if err != nil {
		t.Fatal(err)
	}
	n := tr.Len()
	s := MustNew(tr, predictor.NewTwoBit(), DefaultOptions())
	tr = nil
	perInst := float64(liveHeap()-base) / float64(n)
	runtime.KeepAlive(s)
	t.Logf("a prepared Sim retains %.1f B per instruction over %d instructions", perInst, n)
	if perInst > maxRetainedPerInst {
		t.Errorf("a prepared Sim retains %.1f B per instruction, want at most %.0f", perInst, maxRetainedPerInst)
	}
}

func TestParseModel(t *testing.T) {
	for _, tc := range []struct {
		name string
		want Model
		ok   bool
	}{
		{"DEE-CD-MF", ModelDEECDMF, true},
		{"sp-cd-mf", ModelSPCDMF, true},
		{"Dee-Cd", ModelDEECD, true},
		{" SP-CD ", ModelSPCD, true},
		{"dee", ModelDEE, true},
		{"SP", ModelSP, true},
		{"ee", ModelEE, true},
		{"DEE-pure-CD-MF", Model{dee.DEEPure, CDMF}, true},
		{"dee-profile-cd-mf", Model{dee.DEEProfile, CDMF}, true},
		{"dee-pure", Model{dee.DEEPure, CDMF}, true},
		{"DEE-PROFILE", Model{dee.DEEProfile, CDMF}, true},
		{"EE-CD", Model{}, false},
		{"DEE-pure-CD", Model{}, false},
		{"all", Model{}, false},
		{"", Model{}, false},
	} {
		got, ok := ParseModel(tc.name)
		if ok != tc.ok || got != tc.want {
			t.Errorf("ParseModel(%q) = %v, %v; want %v, %v", tc.name, got, ok, tc.want, tc.ok)
		}
	}
	// Every model a result or journal key can print parses back to itself.
	for _, m := range slices.Concat(PaperModels, ReferenceModels) {
		if got, ok := ParseModel(m.String()); !ok || got != m {
			t.Errorf("ParseModel(%q) = %v, %v; want round trip", m, got, ok)
		}
	}
}
