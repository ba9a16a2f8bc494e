package ilpsim

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"deesim/internal/bench"
	"deesim/internal/dee"
	"deesim/internal/obs"
	"deesim/internal/predictor"
	"deesim/internal/trace"
)

// diffModels is the full model set the two schedulers are differentially
// tested over: the seven paper models plus the two tree-based reference
// strategies (DEEPure exercises the trie-backed bitset coverage,
// DEEProfile the dynamic-tree rebuild path).
var diffModels = []Model{
	ModelDEECDMF, ModelSPCDMF, ModelDEECD, ModelSPCD, ModelDEE, ModelSP, ModelEE,
	{dee.DEEPure, CDMF},
	{dee.DEEProfile, CDMF},
}

// edgeModels adds the tree strategies under Restrictive, where the issue
// scan skips every ready instruction of a path the tree leaves
// uncovered. Their legacy runs are slow at deep ETs, so only the
// word-edge test and the fuzz target run them.
var edgeModels = append(slices.Clip(diffModels), Model{dee.DEEPure, Restrictive}, Model{dee.DEEProfile, Restrictive})

var diffETs = []int{1, 4, 8, 32}

// deepETs extend the differential sweep past one 64-bit word of window
// depth, where the coverage horizon, the multi-word ready-path bitset
// and control parking do most of their work. Short mode skips them.
var deepETs = []int{64, 256}

// testETs returns diffETs plus, outside short mode, deepETs.
func testETs() []int {
	if testing.Short() {
		return diffETs
	}
	return append(slices.Clip(diffETs), deepETs...)
}

// diffCompare runs one (model, ET) cell through both schedulers and
// fails unless the Results are identical in every field. dd is
// legacyDeps of s's trace.
func diffCompare(t *testing.T, s *Sim, dd *trace.DataDeps, m Model, et int, label string) {
	t.Helper()
	legacy, lerr := s.runLegacy(context.Background(), dd, m, et)
	event, eerr := s.runEvent(context.Background(), m, et)
	if (lerr == nil) != (eerr == nil) {
		t.Fatalf("%s %v ET=%d: error mismatch: legacy=%v event=%v", label, m, et, lerr, eerr)
	}
	if lerr != nil {
		return // both failed identically-typed; nothing to compare
	}
	if legacy != event {
		t.Errorf("%s %v ET=%d: result drift:\n  legacy: %+v\n  event:  %+v", label, m, et, legacy, event)
	}
}

// TestSchedulerDifferential proves the event-driven scheduler is
// cycle-for-cycle identical to the legacy scanner over every model and
// a spread of ETs on all five paper workloads.
func TestSchedulerDifferential(t *testing.T) {
	names := bench.Names()
	if testing.Short() {
		names = []string{"compress", "xlisp"}
	}
	for _, name := range names {
		w, err := bench.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := w.Inputs[0].Build(1)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := trace.Record(prog, 12_000)
		if err != nil {
			t.Fatal(err)
		}
		s := MustNew(tr, predictor.NewTwoBit(), DefaultOptions())
		dd := legacyDeps(tr, s)
		t.Run(name, func(t *testing.T) {
			t.Parallel() // the legacy oracle is slow at the deep ETs
			for _, m := range diffModels {
				for _, et := range testETs() {
					diffCompare(t, s, dd, m, et, name)
				}
			}
		})
	}
}

// TestSchedulerDifferentialOptions stresses the option corners where the
// event scheduler's machinery diverges most from the scan loop:
// realistic latencies (cycle-skipping), a data cache (wide latency
// spread in the calendar ring), a PEs cap (in-order issue truncation),
// and zero/large mispredict penalties (known-transition jumps). Outside
// short mode it adds the deep windows of deepETs, including the PEs-cap
// corner, where issue truncation meets parked and unparked
// instructions.
func TestSchedulerDifferentialOptions(t *testing.T) {
	w, err := bench.ByName("compress")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := w.Inputs[0].Build(1)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trace.Record(prog, 12_000)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		opts Options
	}{
		{"realistic", Options{Penalty: 1, Lat: RealisticLatencies()}},
		{"penalty0", Options{Penalty: 0}},
		{"penalty8", Options{Penalty: 8, Lat: RealisticLatencies()}},
		{"pes4", Options{Penalty: 1, PEs: 4}},
		{"pes1-realistic", Options{Penalty: 2, PEs: 1, Lat: RealisticLatencies()}},
		{"strictmem", Options{Penalty: 1, StrictMemory: true}},
	}
	for _, tc := range cases {
		s := MustNew(tr, predictor.NewTwoBit(), tc.opts)
		dd := legacyDeps(tr, s)
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			for _, m := range diffModels {
				ets := []int{1, 8, 32}
				if !testing.Short() {
					ets = append(ets, deepETs...)
				}
				for _, et := range ets {
					diffCompare(t, s, dd, m, et, tc.name)
				}
			}
		})
	}
}

// wordEdgeSrc builds a loop whose windows and paths straddle the ready
// set's word boundaries. A prologue of independent instructions ends
// the first path at trace position prologue+9, next to the 4096-position
// boundary of one summary word. Each iteration then adds paths of 5, 32
// and 32 instructions that drift across the 64-position ready words,
// and over 300 paths in all, so an ET-256 window ends inside the trace.
// An LCG drives one branch per iteration, so about half of them
// mispredict, and the instruction at its join reads a register the
// fall-through side writes, so under the CD models it waits for the
// branch. Half of each iteration's filler reads only the loop counter,
// so ready instructions sit past every window's end.
func wordEdgeSrc(prologue int) string {
	var b strings.Builder
	b.WriteString("main:\n    li   $s0, 0\n    li   $s1, 150\n    li   $s5, 12345\n    li   $t8, 1103\n")
	for i := 0; i < prologue; i++ {
		fmt.Fprintf(&b, "    addi $t%d, $zero, %d\n", 1+i%6, i)
	}
	b.WriteString(`loop:
    mul  $s5, $s5, $t8
    addi $s5, $s5, 12345
    srl  $t0, $s5, 13
    andi $t0, $t0, 1
    bne  $t0, $zero, take
    addi $s3, $s3, 1
take:
    add  $t7, $s3, $t7
`)
	for i := 0; i < 30; i++ {
		fmt.Fprintf(&b, "    addi $t%d, $s0, %d\n", 1+i%6, i)
	}
	b.WriteString("    bne  $s0, $s1, mid\nmid:\n")
	for i := 0; i < 30; i++ {
		fmt.Fprintf(&b, "    addi $t%d, $t%d, %d\n", 1+i%6, 1+i%6, i)
	}
	b.WriteString("    addi $s0, $s0, 1\n    blt  $s0, $s1, loop\n    halt\n")
	return b.String()
}

// TestSchedulerDifferentialWordEdges runs deep windows over paths that
// straddle the ready set's 64-position words and the 4096-position
// words of its summary, with the first loop path starting one before,
// at, and one after position 4096, under a PEs cap of 1 and of 4 and
// without one (where DEE-pure skips paths its tree leaves uncovered).
func TestSchedulerDifferentialWordEdges(t *testing.T) {
	for _, first := range []int32{4095, 4096, 4097} {
		tr := mustTrace(t, wordEdgeSrc(int(first)-9))
		for _, pes := range []int{0, 1, 4} {
			s := MustNew(tr, predictor.NewTwoBit(), Options{Penalty: 1, PEs: pes})
			if s.pathStart[1] != first || s.n < 2*4096 || len(s.pathSize) < 300 {
				t.Fatalf("first loop path starts at %d of %d instructions on %d paths, want %d of more than 8192 on at least 300",
					s.pathStart[1], s.n, len(s.pathSize), first)
			}
			dd := legacyDeps(tr, s)
			label := fmt.Sprintf("first=%d/pes%d", first, pes)
			t.Run(label, func(t *testing.T) {
				t.Parallel()
				for _, m := range edgeModels {
					diffCompare(t, s, dd, m, 256, label)
				}
			})
		}
	}
}

// TestReadyScanFollowsEvents counts the ready-set and summary words the
// issue scans load instead of timing them. The scan walks only the
// non-empty words of the window's trace range, and the summary's words
// cover 4096 positions each, so a cycle's scan work follows the ready
// instructions, not the window size: per simulated cycle, ET 256 may
// load at most twice the words ET 8 does.
func TestReadyScanFollowsEvents(t *testing.T) {
	for _, name := range bench.Names() {
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
		s := MustNew(tr, predictor.NewTwoBit(), DefaultOptions())
		for _, m := range []Model{ModelSP, ModelSPCD, ModelSPCDMF, ModelDEECDMF} {
			perCycle := func(et int) float64 {
				before := mSimReadyWords.Value()
				r, err := s.runEvent(context.Background(), m, et)
				if err != nil {
					t.Fatal(err)
				}
				return float64(mSimReadyWords.Value()-before) / float64(r.Cycles)
			}
			lo, hi := perCycle(8), perCycle(256)
			if hi > 2*lo {
				t.Errorf("%s %v: %.2f ready words scanned per cycle at ET 256, %.2f at ET 8; want at most twice", name, m, hi, lo)
			} else {
				t.Logf("%s %v: %.2f words/cycle at ET 256, %.2f at ET 8 (ratio %.2f)", name, m, hi, lo, hi/lo)
			}
		}
	}
}

// TestConcurrentModelsMatchSequential asserts the Sim concurrency
// contract: all models fanned out concurrently over one shared Sim
// (with pooled arenas recycling between and during runs) produce
// exactly the results of sequential runs. Run under -race this is the
// thread-safety proof for the parallel model sweeps in
// experiments.RunMatrixContext.
func TestConcurrentModelsMatchSequential(t *testing.T) {
	s := workloadSims(t)["xlisp"]
	ets := []int{4, 16}

	type cell struct {
		m  Model
		et int
	}
	var cells []cell
	want := make(map[string]Result)
	for _, m := range diffModels {
		for _, et := range ets {
			r, err := s.RunContext(context.Background(), m, et)
			if err != nil {
				t.Fatal(err)
			}
			cells = append(cells, cell{m, et})
			want[fmt.Sprintf("%v/%d", m, et)] = r
		}
	}

	const rounds = 3 // re-run every cell a few times so pool arenas are contended
	var wg sync.WaitGroup
	errs := make(chan error, len(cells)*rounds)
	// Every goroutine also asks for the Oracle, which the Sim computes
	// on first use; they race for that first call.
	oracles := make([]Result, len(cells)*rounds)
	for round := 0; round < rounds; round++ {
		for i, c := range cells {
			wg.Add(1)
			go func(c cell, oracle *Result) {
				defer wg.Done()
				*oracle = s.Oracle()
				r, err := s.RunContext(context.Background(), c.m, c.et)
				if err != nil {
					errs <- err
					return
				}
				key := fmt.Sprintf("%v/%d", c.m, c.et)
				if r != want[key] {
					errs <- fmt.Errorf("concurrent run %s drifted:\n  want %+v\n  got  %+v", key, want[key], r)
				}
			}(c, &oracles[round*len(cells)+i])
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	for _, o := range oracles {
		if o != s.Oracle() {
			t.Fatalf("concurrent Oracle drifted: %+v, want %+v", o, s.Oracle())
		}
	}
}

// TestConcurrentRunsLeaveTraceUntouched prepares a freshly recorded
// trace and runs models on it from several goroutines at once, through
// the event scheduler, the unlimited path and the Oracle, and the
// legacy loop over the trace's data dependences. No run may write the
// shared trace: its lazily built path segmentation must never have been
// filled, and under -race a write from two runs would be reported.
func TestConcurrentRunsLeaveTraceUntouched(t *testing.T) {
	prog, err := bench.BuildSynthetic(bench.DefaultSynthetic())
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trace.Record(prog, 20_000)
	if err != nil {
		t.Fatal(err)
	}
	s := MustNew(tr, predictor.NewTwoBit(), DefaultOptions())
	dd := legacyDeps(tr, s)
	runs := []func() (Result, error){
		func() (Result, error) { return s.RunContext(context.Background(), ModelDEECDMF, 16) },
		func() (Result, error) { return s.RunContext(context.Background(), ModelSP, 8) },
		func() (Result, error) { return s.runLegacy(context.Background(), dd, ModelSPCD, 8) },
		func() (Result, error) { return s.RunUnlimitedContext(context.Background(), ModelEE) },
		func() (Result, error) { return s.Oracle(), nil },
	}
	var wg sync.WaitGroup
	errs := make(chan error, len(runs))
	for _, run := range runs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := run(); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if !reflect.ValueOf(tr).Elem().FieldByName("pathEnds").IsNil() {
		t.Error("preparing or running the Sim filled the trace's lazy path segmentation")
	}
}

// TestSimCollectableAfterRun drops a Sim right after a run: one GC must
// reclaim it. The runtime keeps a used sync.Pool reachable until the
// GC after next, so an arena pool inside the Sim would keep the Sim,
// its trace and every table alive through that GC.
func TestSimCollectableAfterRun(t *testing.T) {
	prog, err := bench.BuildSynthetic(bench.DefaultSynthetic())
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trace.Record(prog, 20_000)
	if err != nil {
		t.Fatal(err)
	}
	s := MustNew(tr, predictor.NewTwoBit(), DefaultOptions())
	if _, err := s.Run(ModelDEECDMF, 16); err != nil {
		t.Fatal(err)
	}
	// The Sim references itself (its Oracle closure), and a finalizer
	// on a cycle may never run, so watch one of its tables instead.
	collected := make(chan struct{})
	runtime.SetFinalizer(&s.path[0], func(*int32) { close(collected) })
	s = nil
	runtime.GC()
	select {
	case <-collected:
	case <-time.After(2 * time.Second):
		t.Error("a Sim outlived its last run by a GC")
	}
}

// FuzzSchedulerDifferential feeds random short synthetic traces through
// both schedulers and asserts identical results — the moving parts
// (penalty, latencies, PEs cap, model from edgeModels, ET) are all
// fuzz-controlled.
func FuzzSchedulerDifferential(f *testing.F) {
	f.Add(uint16(40), uint8(4), uint8(88), uint32(0x5e5e), uint8(3), uint8(8), uint8(0), uint8(1), false)
	f.Add(uint16(120), uint8(2), uint8(55), uint32(0xdead), uint8(0), uint8(1), uint8(5), uint8(0), true)
	f.Add(uint16(75), uint8(8), uint8(97), uint32(1), uint8(6), uint8(34), uint8(7), uint8(4), false)
	f.Add(uint16(10), uint8(1), uint8(50), uint32(99), uint8(1), uint8(3), uint8(8), uint8(3), true)
	// Deep windows under a PEs cap: SP-CD, SP-CD-MF and DEE-CD-MF at
	// ET 256, where control parking (SP), DEE's per-cycle relaxation
	// and the multi-word ready bitset are exercised.
	f.Add(uint16(200), uint8(6), uint8(85), uint32(0xbeef), uint8(4), uint8(255), uint8(3), uint8(1), false)
	f.Add(uint16(250), uint8(7), uint8(70), uint32(0xc0de), uint8(2), uint8(255), uint8(1), uint8(2), true)
	f.Add(uint16(180), uint8(5), uint8(80), uint32(0xfeed), uint8(3), uint8(255), uint8(0), uint8(1), false)
	// DEE control parking under a PEs cap with a penalty above one:
	// DEE-CD-MF and DEE-CD at deep and shallow ETs, where instructions
	// wait on two branches or on a branch and the root, a woken one
	// leaves a stale twin behind, and the cap cuts a cycle's issue
	// short.
	f.Add(uint16(220), uint8(6), uint8(75), uint32(0xd0e1), uint8(4), uint8(255), uint8(0), uint8(5), false)
	f.Add(uint16(220), uint8(5), uint8(65), uint32(0xd0e2), uint8(2), uint8(63), uint8(2), uint8(7), true)
	f.Add(uint16(150), uint8(8), uint8(60), uint32(0xd0e3), uint8(3), uint8(15), uint8(2), uint8(3), false)
	f.Add(uint16(150), uint8(7), uint8(70), uint32(0xd0e4), uint8(1), uint8(31), uint8(0), uint8(4), false)
	// Ready-set word edges: 6000-instruction traces at ET 256 cross the
	// 4096-position summary boundary, under PEs 1 (work 6) and 4 (work
	// 4), for every model, the Restrictive tree models (path skip)
	// included.
	for mi := range edgeModels {
		f.Add(uint16(299), uint8(8), uint8(60+mi), uint32(0xed9e+mi), uint8(6), uint8(255), uint8(mi), uint8(1), mi%2 == 0)
		f.Add(uint16(299), uint8(3), uint8(75), uint32(0xed90+mi), uint8(4), uint8(255), uint8(mi), uint8(2), false)
	}
	f.Fuzz(func(t *testing.T, iters uint16, branches, bias uint8, seed uint32, work, et, modelIdx, penalty uint8, realistic bool) {
		cfg := bench.SyntheticConfig{
			Iterations:      1 + int(iters)%300,
			BranchesPerIter: 1 + int(branches)%8,
			Bias:            int(bias) % 101,
			Seed:            seed,
			Work:            int(work) % 7,
		}
		prog, err := bench.BuildSynthetic(cfg)
		if err != nil {
			t.Skip()
		}
		tr, err := trace.Record(prog, 6_000)
		if err != nil {
			t.Skip()
		}
		opts := Options{Penalty: int(penalty) % 9, PEs: int(work) % 5}
		if realistic {
			opts.Lat = RealisticLatencies()
		}
		s, err := New(tr, predictor.NewTwoBit(), opts)
		if err != nil {
			t.Skip()
		}
		m := edgeModels[int(modelIdx)%len(edgeModels)]
		etv := 1 + int(et) // 1..256: deep enough for multi-word windows

		legacy, lerr := s.runLegacy(context.Background(), legacyDeps(tr, s), m, etv)
		event, eerr := s.runEvent(context.Background(), m, etv)
		if (lerr == nil) != (eerr == nil) {
			t.Fatalf("%v ET=%d: error mismatch: legacy=%v event=%v", m, etv, lerr, eerr)
		}
		if lerr != nil {
			return
		}
		if legacy.Cycles != event.Cycles || legacy.Speedup != event.Speedup ||
			legacy.RootResolvedMispredicts != event.RootResolvedMispredicts || legacy != event {
			t.Fatalf("%v ET=%d: result drift:\n  legacy: %+v\n  event:  %+v", m, etv, legacy, event)
		}
	})
}

// TestCyclesMonotoneInET is a metamorphic guard on the event scheduler:
// granting more branch-path resources never costs cycles. Every paper
// model on every input must take non-increasing Result.Cycles as ET
// doubles from 1 to 256. The relation comes from the shapes, not from
// the legacy oracle, so it also holds the kernel to account at the
// deep windows the oracle is too slow to sweep exhaustively.
func TestCyclesMonotoneInET(t *testing.T) {
	for _, w := range bench.All() {
		for _, in := range w.Inputs {
			prog, err := in.Build(1)
			if err != nil {
				t.Fatal(err)
			}
			tr, err := trace.Record(prog, 12_000)
			if err != nil {
				t.Fatal(err)
			}
			s := MustNew(tr, predictor.NewTwoBit(), DefaultOptions())
			for _, m := range PaperModels {
				prev, prevET := int64(0), 0
				for et := 1; et <= 256; et *= 2 {
					r, err := s.RunContext(context.Background(), m, et)
					if err != nil {
						t.Fatalf("%s/%s %v ET=%d: %v", w.Name, in.Name, m, et, err)
					}
					if prevET > 0 && r.Cycles > prev {
						t.Errorf("%s/%s %v: %d cycles at ET %d, %d at ET %d",
							w.Name, in.Name, m, prev, prevET, r.Cycles, et)
					}
					prev, prevET = r.Cycles, et
				}
			}
		}
	}
}

// TestSimCountersRepeat runs one fixed set of cells twice and compares
// the deltas of every deesim_sim_* counter: each must repeat exactly, so
// a gate on counted work can compare them across runs and machines.
// The two arena counters are the exception (see metrics.go): they
// depend on when the collector empties the arena pool, and only their
// sum, one per run, repeats.
func TestSimCountersRepeat(t *testing.T) {
	prog, err := bench.BuildSynthetic(bench.SyntheticConfig{Iterations: 400, BranchesPerIter: 6, Bias: 70, Seed: 3, Work: 4})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trace.Record(prog, 12_000)
	if err != nil {
		t.Fatal(err)
	}
	sims := []*Sim{
		MustNew(tr, predictor.NewTwoBit(), DefaultOptions()),
		MustNew(tr, predictor.NewTwoBit(), Options{Penalty: 8, Lat: RealisticLatencies()}),
		MustNew(tr, predictor.NewTwoBit(), Options{Penalty: 2, PEs: 4}),
	}
	const arenaAlloc, arenaReuse = "deesim_sim_arena_alloc_total", "deesim_sim_arena_reuse_total"
	counters := func() map[string]float64 {
		out := map[string]float64{}
		for _, smp := range obs.Default.Snapshot() {
			if strings.HasPrefix(smp.Name, "deesim_sim_") && strings.HasSuffix(smp.Name, "_total") {
				out[smp.Name] = smp.Value
			}
		}
		return out
	}
	runCells := func() map[string]float64 {
		before := counters()
		for _, s := range sims {
			for _, m := range diffModels {
				for _, et := range []int{4, 64} {
					if _, err := s.RunContext(context.Background(), m, et); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		delta := counters()
		for name := range delta {
			delta[name] -= before[name]
		}
		delta["arena alloc + reuse"] = delta[arenaAlloc] + delta[arenaReuse]
		delete(delta, arenaAlloc)
		delete(delta, arenaReuse)
		return delta
	}
	first, second := runCells(), runCells()
	if len(first) < 8 {
		t.Fatalf("only %d deesim_sim_* counters found: %v", len(first), first)
	}
	runs := float64(len(sims) * len(diffModels) * 2)
	if first["deesim_sim_runs_total"] != runs || first["arena alloc + reuse"] != runs {
		t.Errorf("counted %v runs and %v arenas, want %v of each", first["deesim_sim_runs_total"], first["arena alloc + reuse"], runs)
	}
	for name, v := range first {
		if v <= 0 {
			t.Errorf("%s: delta %v, want positive (the cells should exercise every counter)", name, v)
		}
		if second[name] != v {
			t.Errorf("%s: delta %v on the first pass, %v on the second", name, v, second[name])
		}
	}
}

// TestOracleComputedOnce: Oracle is a per-Sim constant, so only the
// first call may pay for the dataflow pass and its allocation.
func TestOracleComputedOnce(t *testing.T) {
	s := workloadSims(t)["xlisp"]
	want := s.Oracle()
	if allocs := testing.AllocsPerRun(10, func() {
		if got := s.Oracle(); got != want {
			t.Fatalf("Oracle drifted: %+v, want %+v", got, want)
		}
	}); allocs != 0 {
		t.Fatalf("repeat Oracle call allocated %.0f times, want 0", allocs)
	}
}

// TestDEEParkingRetestsPerWake counts coverage re-tests instead of
// timing them. Two mispredicted branches with unknown joins sit in
// front of the instructions after them, so no instruction past them
// relaxes past either, and a long dependence chain in front keeps the
// machine issuing (no cycle skips) for as long as the penalty holds the
// branches unknown. An instruction that waits on both branches is
// re-tested once when it first reaches the walk and once when they
// resolve, however long that takes; re-testing it every cycle would
// make the count grow with the penalty.
func TestDEEParkingRetestsPerWake(t *testing.T) {
	src := strings.Repeat("    addi $s0, $s0, 1\n", 600) + `
    bne  $zero, $zero, side1   # not taken, predicted taken
    bne  $zero, $zero, side2   # likewise
    add  $t3, $t1, $t2
    halt
side1:
    li   $t1, 5
    halt
side2:
    li   $t2, 6
    halt
`
	tr := mustTrace(t, src)
	for _, m := range []Model{ModelDEECD, ModelDEECDMF} {
		var counts []int64
		for _, penalty := range []int{100, 400} {
			s := MustNew(tr, predictor.NewTwoBit(), Options{Penalty: penalty, DesignP: 0.6})
			diffCompare(t, s, legacyDeps(tr, s), m, 16, fmt.Sprintf("penalty %d", penalty))
			before := mSimRetests.Value()
			r, err := s.runEvent(context.Background(), m, 16)
			if err != nil {
				t.Fatal(err)
			}
			if r.Mispredicts != 2 || r.Cycles <= int64(penalty) {
				t.Fatalf("%v penalty %d: %d mispredicts in %d cycles; the trace no longer holds its branches unknown", m, penalty, r.Mispredicts, r.Cycles)
			}
			counts = append(counts, mSimRetests.Value()-before)
		}
		// k and the halt behind it, each tested once before and once
		// after the wake.
		if counts[0] != counts[1] || counts[1] > 4 {
			t.Errorf("%v: %d coverage re-tests at penalty 100, %d at penalty 400; want the same count, at most 4", m, counts[0], counts[1])
		}
	}
}
