package ilpsim

import (
	"fmt"
	"testing"

	"deesim/internal/asm"
	"deesim/internal/bench"
	"deesim/internal/cache"
	"deesim/internal/dee"
	"deesim/internal/predictor"
	"deesim/internal/trace"
)

// The extension axes the paper defers to future work (§1): explicit PE
// limits, non-unit latencies, and a memory system.

func TestLatencyOfDefaults(t *testing.T) {
	var zero Latencies
	n := zero.normalized()
	if n != UnitLatencies() {
		t.Errorf("zero latencies normalize to %+v", n)
	}
	r := RealisticLatencies()
	if r.Mul != 3 || r.Div != 12 || r.Load != 2 {
		t.Errorf("realistic latencies %+v", r)
	}
}

func TestLatencyChain(t *testing.T) {
	// A serial chain of 10 multiplies at Mul=3: the oracle needs ~30
	// cycles plus the setup instruction.
	src := "    li $t0, 3\n"
	for i := 0; i < 10; i++ {
		src += "    mul $t0, $t0, $t0\n"
	}
	src += "    halt\n"
	tr := mustTrace(t, src)
	opts := DefaultOptions()
	opts.Lat = Latencies{Mul: 3}
	s := MustNew(tr, predictor.NewTwoBit(), opts)
	r := s.Oracle()
	if r.Cycles != 31 {
		t.Errorf("oracle cycles = %d, want 31 (1 + 10×3)", r.Cycles)
	}
	// Unit latency: 11.
	s1 := MustNew(tr, predictor.NewTwoBit(), DefaultOptions())
	if r1 := s1.Oracle(); r1.Cycles != 11 {
		t.Errorf("unit oracle cycles = %d, want 11", r1.Cycles)
	}
}

func TestLatencyInWindowedRun(t *testing.T) {
	// The same chain through the windowed simulator.
	src := "    li $t0, 3\n"
	for i := 0; i < 10; i++ {
		src += "    mul $t0, $t0, $t0\n"
	}
	src += "    halt\n"
	tr := mustTrace(t, src)
	opts := DefaultOptions()
	opts.Lat = Latencies{Mul: 4}
	s := MustNew(tr, predictor.NewTwoBit(), opts)
	r := run(t, s, ModelSPCDMF, 8)
	if r.Cycles != 41 {
		t.Errorf("cycles = %d, want 41 (1 + 10×4)", r.Cycles)
	}
}

func TestPECapLimitsThroughput(t *testing.T) {
	// 24 independent instructions: unlimited PEs finish in 1 cycle;
	// 4 PEs need 6 cycles; 1 PE needs 24.
	src := ""
	for i := 0; i < 24; i++ {
		src += fmt.Sprintf("    li $t%d, %d\n", i%8, i)
	}
	src += "    halt\n"
	tr := mustTrace(t, src)
	for _, c := range []struct {
		pes  int
		want int64
	}{{0, 1}, {4, 7}, {1, 25}} {
		opts := DefaultOptions()
		opts.PEs = c.pes
		s := MustNew(tr, predictor.NewTwoBit(), opts)
		r := run(t, s, ModelSPCDMF, 8)
		// halt is the 25th instruction.
		if c.pes == 0 && r.Cycles != 1 {
			t.Errorf("unlimited PEs: cycles = %d, want 1", r.Cycles)
		}
		if c.pes == 4 && r.Cycles != 7 {
			t.Errorf("4 PEs: cycles = %d, want 7 (25 insts / 4)", r.Cycles)
		}
		if c.pes == 1 && r.Cycles != 25 {
			t.Errorf("1 PE: cycles = %d, want 25", r.Cycles)
		}
	}
}

func TestPEMonotonicity(t *testing.T) {
	w, _ := bench.ByName("espresso")
	prog, err := w.Inputs[0].Build(1)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trace.Record(prog, 40_000)
	if err != nil {
		t.Fatal(err)
	}
	prev := int64(1 << 62)
	for _, pes := range []int{1, 2, 4, 8, 16, 0} {
		opts := DefaultOptions()
		opts.PEs = pes
		s := MustNew(tr, predictor.NewTwoBit(), opts)
		r := run(t, s, ModelDEECDMF, 64)
		cyc := r.Cycles
		if cyc > prev {
			t.Errorf("PEs=%d: %d cycles, more than fewer PEs (%d)", pes, cyc, prev)
		}
		prev = cyc
	}
}

func TestPEsSaturate(t *testing.T) {
	// The paper notes the implicit PE usage stayed under 200; a 256-PE
	// cap should be indistinguishable from unlimited on our traces.
	w, _ := bench.ByName("compress")
	prog, err := w.Inputs[0].Build(1)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trace.Record(prog, 40_000)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.PEs = 256
	a := run(t, MustNew(tr, predictor.NewTwoBit(), opts), ModelDEECDMF, 64)
	b := run(t, MustNew(tr, predictor.NewTwoBit(), DefaultOptions()), ModelDEECDMF, 64)
	if a.Cycles != b.Cycles {
		t.Errorf("256 PEs (%d cycles) differs from unlimited (%d)", a.Cycles, b.Cycles)
	}
}

func TestCacheAffectsLoads(t *testing.T) {
	// Pointer chasing over a 128-node ring with 64-byte stride (8 KiB
	// footprint): the load is on the critical path, so its latency is
	// the cycle time. Two passes: the second hits in a cache that holds
	// the footprint and thrashes one that does not.
	src := `
    la  $t1, buf
    li  $t0, 256
loop:
    lw  $t1, 0($t1)
    addi $t0, $t0, -1
    bgtz $t0, loop
    halt
.data
buf: .space 8192
`
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	base := p.DataSymbols["buf"]
	for i := 0; i < 128; i++ {
		next := base + uint32(((i+1)%128)*64)
		off := i * 64
		p.Data[off] = byte(next)
		p.Data[off+1] = byte(next >> 8)
		p.Data[off+2] = byte(next >> 16)
		p.Data[off+3] = byte(next >> 24)
	}
	tr, err := trace.Record(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	runWith := func(cfg *cache.Config) (int64, float64) {
		opts := DefaultOptions()
		opts.Cache = cfg
		s := MustNew(tr, predictor.NewTwoBit(), opts)
		r := run(t, s, ModelDEECDMF, 64)
		return r.Cycles, s.CacheMissRate()
	}
	// Tiny cache: the 8 KiB wrap-around footprint thrashes it.
	small := cache.Config{SizeBytes: 512, LineBytes: 32, Ways: 1, HitLatency: 1, MissLatency: 12}
	big := cache.Config{SizeBytes: 16 << 10, LineBytes: 32, Ways: 4, HitLatency: 1, MissLatency: 12}
	cSmall, mrSmall := runWith(&small)
	cBig, mrBig := runWith(&big)
	if mrSmall <= mrBig {
		t.Errorf("miss rates: small %.3f <= big %.3f", mrSmall, mrBig)
	}
	if cSmall <= cBig {
		t.Errorf("cycles: thrashing cache (%d) not slower than fitting cache (%d)", cSmall, cBig)
	}
	// No cache at all equals unit-latency loads: fastest.
	noCache := run(t, MustNew(tr, predictor.NewTwoBit(), DefaultOptions()), ModelDEECDMF, 64)
	if noCache.Cycles > cBig {
		t.Errorf("unit-latency run (%d) slower than cached (%d)", noCache.Cycles, cBig)
	}
}

func TestRealisticLatenciesSlowdown(t *testing.T) {
	w, _ := bench.ByName("cc1")
	prog, err := w.Inputs[0].Build(1)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trace.Record(prog, 40_000)
	if err != nil {
		t.Fatal(err)
	}
	unit := run(t, MustNew(tr, predictor.NewTwoBit(), DefaultOptions()), ModelDEECDMF, 64)
	opts := DefaultOptions()
	opts.Lat = RealisticLatencies()
	real := run(t, MustNew(tr, predictor.NewTwoBit(), opts), ModelDEECDMF, 64)
	if real.Cycles <= unit.Cycles {
		t.Errorf("realistic latencies (%d cycles) not slower than unit (%d)", real.Cycles, unit.Cycles)
	}
	// §5.3 wonders whether non-unit latencies hurt DEE less than other
	// models thanks to overlap; record the ratio rather than assert it.
	t.Logf("slowdown under realistic latencies: %.2fx", float64(real.Cycles)/float64(unit.Cycles))
}

// TestPEDemandBand reproduces §5.1's observation: at ET = 100 branch
// paths the peak implicit PE demand stays modest (the paper expected
// under 200) and the average is much lower than the peak.
func TestPEDemandBand(t *testing.T) {
	for _, name := range []string{"compress", "espresso"} {
		w, _ := bench.ByName(name)
		prog, err := w.Inputs[0].Build(1)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := trace.Record(prog, 80_000)
		if err != nil {
			t.Fatal(err)
		}
		s := MustNew(tr, predictor.NewTwoBit(), DefaultOptions())
		r := run(t, s, ModelDEECDMF, 100)
		if r.MaxPEs <= 0 || r.MaxPEs >= 600 {
			t.Errorf("%s: peak PE demand %d implausible", name, r.MaxPEs)
		}
		if r.AvgPEs >= float64(r.MaxPEs) {
			t.Errorf("%s: average PE demand %.1f not below peak %d", name, r.AvgPEs, r.MaxPEs)
		}
		t.Logf("%s: peak PEs %d, average %.1f at ET=100", name, r.MaxPEs, r.AvgPEs)
	}
}

// --- unlimited resources (Lam & Wilson reference levels) ---

// TestUnlimitedEECDMFEqualsOracle: eager execution with unlimited
// resources and minimal control dependencies has no control constraints
// at all — the paper defines its Oracle exactly this way. Sim.Oracle is
// that pass, so both are held to pullOracle, a dataflow pass over the
// trace's data dependences that shares no code with them.
func TestUnlimitedEECDMFEqualsOracle(t *testing.T) {
	w, _ := bench.ByName("compress")
	prog, err := w.Inputs[0].Build(1)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trace.Record(prog, 60_000)
	if err != nil {
		t.Fatal(err)
	}
	s := MustNew(tr, predictor.NewTwoBit(), DefaultOptions())
	r, err := s.RunUnlimited(Model{dee.EE, CDMF})
	if err != nil {
		t.Fatal(err)
	}
	o := s.Oracle()
	if r.Cycles != o.Cycles {
		t.Errorf("EE-CD-MF unlimited (%d cycles) != Oracle (%d)", r.Cycles, o.Cycles)
	}
	if want := pullOracle(s, legacyDeps(tr, s)); r.Cycles != want {
		t.Errorf("EE-CD-MF unlimited (%d cycles) != pull-style dataflow oracle (%d)", r.Cycles, want)
	}
	if o.ET != -1 || o.Insts != tr.Len() || o.Speedup != float64(o.Insts)/float64(o.Cycles) {
		t.Errorf("Oracle header %+v, want ET -1 over %d instructions", o, tr.Len())
	}
}

// TestConstrainedApproachesUnlimited: the windowed simulator must be
// bounded by the unlimited level and approach it as ET grows — a strong
// cross-validation of the window implementation.
func TestConstrainedApproachesUnlimited(t *testing.T) {
	w, _ := bench.ByName("xlisp")
	prog, err := w.Inputs[0].Build(1)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trace.Record(prog, 60_000)
	if err != nil {
		t.Fatal(err)
	}
	s := MustNew(tr, predictor.NewTwoBit(), DefaultOptions())
	for _, m := range []Model{ModelSP, ModelSPCD, ModelSPCDMF} {
		u, err := s.RunUnlimited(m)
		if err != nil {
			t.Fatal(err)
		}
		prev := 0.0
		for _, et := range []int{8, 64, 512} {
			r := run(t, s, m, et)
			if r.Speedup > u.Speedup*1.02 {
				t.Errorf("%v ET=%d: constrained %.3f exceeds unlimited %.3f", m, et, r.Speedup, u.Speedup)
			}
			if r.Speedup < prev*0.95 {
				t.Errorf("%v: speedup fell from %.3f to %.3f at ET=%d", m, prev, r.Speedup, et)
			}
			prev = r.Speedup
		}
		if prev < u.Speedup*0.5 {
			t.Errorf("%v: ET=512 (%.3f) far below unlimited (%.3f)", m, prev, u.Speedup)
		}
		t.Logf("%v: unlimited %.3f, ET=512 %.3f", m, u.Speedup, prev)
	}
}

// TestUnlimitedOrdering: at infinite resources DEE covers everything SP
// does plus one pending misprediction, and EE tops both (its infinite
// tree has no uncovered paths at all).
func TestUnlimitedOrdering(t *testing.T) {
	w, _ := bench.ByName("cc1")
	prog, err := w.Inputs[0].Build(1)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trace.Record(prog, 60_000)
	if err != nil {
		t.Fatal(err)
	}
	s := MustNew(tr, predictor.NewTwoBit(), DefaultOptions())
	for _, cd := range []CDMode{Restrictive, CD, CDMF} {
		sp, err := s.RunUnlimited(Model{dee.SP, cd})
		if err != nil {
			t.Fatal(err)
		}
		de, err := s.RunUnlimited(Model{dee.DEE, cd})
		if err != nil {
			t.Fatal(err)
		}
		ee, err := s.RunUnlimited(Model{dee.EE, cd})
		if err != nil {
			t.Fatal(err)
		}
		if de.Speedup < sp.Speedup {
			t.Errorf("%v: unlimited DEE %.3f below SP %.3f", cd, de.Speedup, sp.Speedup)
		}
		if ee.Speedup < de.Speedup {
			t.Errorf("%v: unlimited EE %.3f below DEE %.3f", cd, ee.Speedup, de.Speedup)
		}
		t.Logf("%v: SP %.2f <= DEE %.2f <= EE %.2f", cd, sp.Speedup, de.Speedup, ee.Speedup)
	}
}

// TestDeterminism: identical inputs give identical schedules — the whole
// pipeline is seeded and map-iteration-order free.
func TestDeterminism(t *testing.T) {
	w, _ := bench.ByName("espresso")
	build := func() Result {
		prog, err := w.Inputs[1].Build(1)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := trace.Record(prog, 40_000)
		if err != nil {
			t.Fatal(err)
		}
		s := MustNew(tr, predictor.NewTwoBit(), DefaultOptions())
		r := run(t, s, ModelDEECDMF, 64)
		return r
	}
	a := build()
	b := build()
	if a.Cycles != b.Cycles || a.Mispredicts != b.Mispredicts || a.MaxPEs != b.MaxPEs {
		t.Errorf("nondeterministic results: %+v vs %+v", a, b)
	}
}

// --- edge cases ---

// TestBranchlessProgram: a trace with no conditional branches is a
// single path; every model degenerates to windowless dataflow.
func TestBranchlessProgram(t *testing.T) {
	src := "    li $t0, 1\n    addi $t1, $t0, 2\n    add $t2, $t1, $t0\n    halt\n"
	s := simOf(t, src)
	for _, m := range PaperModels {
		r := run(t, s, m, 8)
		if r.Cycles != 3 {
			t.Errorf("%v: cycles = %d, want 3", m, r.Cycles)
		}
		if r.Branches != 0 || r.Mispredicts != 0 {
			t.Errorf("%v: phantom branches %d/%d", m, r.Branches, r.Mispredicts)
		}
	}
	u, err := s.RunUnlimited(ModelSPCDMF)
	if err != nil || u.Cycles != 3 {
		t.Errorf("unlimited: %v cycles=%d", err, u.Cycles)
	}
}

// TestSingleInstruction: the smallest possible trace.
func TestSingleInstruction(t *testing.T) {
	s := simOf(t, "    halt\n")
	r := run(t, s, ModelDEECDMF, 8)
	if r.Cycles != 1 || r.Insts != 1 {
		t.Errorf("halt-only: %+v", r)
	}
	if o := s.Oracle(); o.Cycles != 1 {
		t.Errorf("oracle: %d", o.Cycles)
	}
}

// TestTinyET: one branch path of resources still makes progress.
func TestTinyET(t *testing.T) {
	src := `
    li $t0, 30
loop:
    addi $t0, $t0, -1
    bgtz $t0, loop
    halt
`
	s := simOf(t, src)
	for _, m := range PaperModels {
		r := run(t, s, m, 1)
		if r.Cycles <= 0 || r.Speedup <= 0 {
			t.Errorf("%v at ET=1: %+v", m, r)
		}
	}
}
