package ilpsim

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"deesim/internal/bench"
	"deesim/internal/cache"
	"deesim/internal/cfg"
	"deesim/internal/dee"
	"deesim/internal/faultinject"
	"deesim/internal/isa"
	"deesim/internal/predictor"
	"deesim/internal/runx"
	"deesim/internal/trace"
)

// prepareOracle is the multi-pass reference for the build behind
// NewContext and RecordContext: the preparation as it was before the
// passes were fused, each table built by its own walk over the trace
// (the lazily segmented trace paths, a separate predictor replay,
// append-grown branch tables, the map-keyed joins, the data dependences
// as trace.DataDeps, a separate memory replay, a separate Oracle pass
// and a cursor array for the CSR fill). It builds the event kernel's
// tables eagerly. The build must prepare identical tables, and derive
// identical kernel tables.
func prepareOracle(ctx context.Context, tr *trace.Trace, pred predictor.Predictor, opts Options) (s *Sim, err error) {
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
	if cerr := runx.CtxErr(ctx, stage); cerr != nil {
		return nil, cerr
	}
	g := cfg.Build(tr.Prog)
	s = &Sim{n: len(tr.Ins), opts: opts}
	path := oraclePaths(tr)
	joins := computeJoinsOracle(tr, g)
	var correct []bool
	s.accuracy, correct = predictor.Accuracy(tr, pred)
	branchOrd := make([]int32, len(tr.Ins))
	var branchPos []int32
	for i := range branchOrd {
		branchOrd[i] = -1
	}
	for i, din := range tr.Ins {
		if din.IsBranch() {
			branchOrd[i] = int32(len(branchPos))
			branchPos = append(branchPos, int32(i))
		}
	}
	s.branches = len(branchPos)
	for _, ok := range correct {
		if !ok {
			s.mispredicts++
		}
	}
	np := tr.NumPaths()
	s.pathBranch = make([]int32, np)
	for i := 0; i < np; i++ {
		s.pathBranch[i] = tr.PathBranch(i)
	}
	s.pathStart = make([]int32, np+1)
	copy(s.pathStart[1:], tr.Paths())
	s.srcMask = make([]uint32, len(tr.Ins))
	s.isLoad = make([]bool, len(tr.Ins))
	for i, din := range tr.Ins {
		in := tr.Prog.Code[din.Static]
		var m uint32
		for _, r := range in.Src() {
			if r != isa.Zero {
				m |= 1 << uint(r)
			}
		}
		s.srcMask[i] = m
		s.isLoad[i] = isa.ClassOf(din.Op) == isa.ClassLoad
	}
	s.pathWrong = make([]cfg.WriteSet, np)
	s.pathStatic = make([]int32, np)
	s.pathCorrect = make([]bool, np)
	s.pathJoin = make([]int32, np)
	for i, bp := range s.pathBranch {
		s.pathStatic[i], s.pathCorrect[i], s.pathJoin[i] = -1, true, -1
		if bp < 0 {
			continue
		}
		din := tr.Ins[bp]
		ord := branchOrd[bp]
		s.pathStatic[i], s.pathCorrect[i], s.pathJoin[i] = din.Static, correct[ord], joins[ord]
		if correct[ord] {
			continue
		}
		taken, fall := g.SideWrites(din.Static)
		if din.Taken {
			s.pathWrong[i] = fall
		} else {
			s.pathWrong[i] = taken
		}
	}
	s.profAcc = oracleProfile(tr, branchPos, correct, len(tr.Prog.Code))
	dd := tr.DataDeps(opts.StrictMemory)
	s.prod = make([][3]int32, len(tr.Ins))
	for k := range s.prod {
		s.prod[k] = [3]int32{dd.Rs[k], dd.Rt[k], dd.Mem[k]}
	}
	s.kern.path = path
	oracleSchedTables(s, branchPos, correct, branchOrd, oracleWakeLists(s, dd))
	if cerr := runx.CtxErr(ctx, stage); cerr != nil {
		return nil, cerr
	}
	if lerr := oracleLatencies(s, tr); lerr != nil {
		return nil, lerr
	}
	s.oracle = s.resultHeader(Model{dee.EE, CDMF}, -1)
	s.oracle.Cycles = pullOracle(s, dd)
	s.oracle.Speedup = float64(s.n) / float64(s.oracle.Cycles)
	s.oracle.AvgPEs = s.oracle.Speedup
	return s, nil
}

// oracleWakeLists builds the CSR wakeup lists from the data dependences
// dd with a separate cursor array and returns the per-instruction
// dependency in-degrees.
func oracleWakeLists(s *Sim, dd *trace.DataDeps) (depCount []uint8) {
	n := s.n
	kt := &s.kern
	kt.wakeOff = make([]int32, n+1)
	depCount = make([]uint8, n)
	for k := 0; k < n; k++ {
		for _, p := range [3]int32{dd.Rs[k], dd.Rt[k], dd.Mem[k]} {
			if p != noDep {
				kt.wakeOff[p+1]++
				depCount[k]++
			}
		}
	}
	for i := 1; i <= n; i++ {
		kt.wakeOff[i] += kt.wakeOff[i-1]
	}
	cursor := make([]int32, n)
	copy(cursor, kt.wakeOff[:n])
	kt.wakeList = make([]int32, kt.wakeOff[n])
	for k := 0; k < n; k++ {
		for _, p := range [3]int32{dd.Rs[k], dd.Rt[k], dd.Mem[k]} {
			if p != noDep {
				kt.wakeList[cursor[p]] = int32(k)
				cursor[p]++
			}
		}
	}
	return depCount
}

// oracleSchedTables derives the event kernel's per-instruction tables
// from the branch tables and the in-degrees, one walk per table.
func oracleSchedTables(s *Sim, branchPos []int32, correct []bool, branchOrd []int32, depCount []uint8) {
	n := s.n
	kt := &s.kern
	kt.nextBranch = make([]int32, n)
	kt.misp = make([]bool, n)
	for k := range kt.nextBranch {
		kt.nextBranch[k] = -1
	}
	for ord, bp := range branchPos {
		if ord+1 < len(branchPos) {
			kt.nextBranch[bp] = branchPos[ord+1]
		}
		kt.misp[bp] = !correct[ord]
	}
	for si := 0; si < 2; si++ {
		pend := make([]uint8, n)
		rdy := make([]uint64, (n+63)/64)
		for k := 0; k < n; k++ {
			p := depCount[k]
			if si == 1 && branchOrd[k] > 0 {
				p++
			}
			pend[k] = p
			if p == 0 {
				rdy[k/64] |= 1 << (k % 64)
			}
		}
		kt.initPending[si] = pend
		kt.initReady[si] = rdy
	}
}

// oracleProfile measures per-static-branch accuracy from the branch
// tables.
func oracleProfile(tr *trace.Trace, branchPos []int32, correct []bool, nStatic int) []float64 {
	hits := make([]int32, nStatic)
	total := make([]int32, nStatic)
	for ord, bp := range branchPos {
		st := tr.Ins[bp].Static
		total[st]++
		if correct[ord] {
			hits[st]++
		}
	}
	out := make([]float64, nStatic)
	for st, t := range total {
		if t > 0 {
			out[st] = float64(hits[st]) / float64(t)
		}
	}
	return out
}

// oracleLatencies assigns per-instruction latencies, replaying memory
// accesses through the memory system when one is configured.
func oracleLatencies(s *Sim, tr *trace.Trace) error {
	lat := s.opts.Lat.normalized()
	s.lat = make([]int32, s.n)
	mem := s.opts.Mem
	if mem == nil && s.opts.Cache != nil {
		dc, err := cache.New(*s.opts.Cache)
		if err != nil {
			return &runx.Error{Kind: runx.KindInvalidInput, Stage: "ilpsim.New", Err: err}
		}
		mem = dc
	}
	for i, din := range tr.Ins {
		l := lat.of(din.Op)
		if mem != nil {
			switch isa.ClassOf(din.Op) {
			case isa.ClassLoad:
				l = mem.Latency(din.MemAddr)
			case isa.ClassStore:
				mem.Access(din.MemAddr) // stores allocate but retire off the critical path
			}
		}
		if l < 1 {
			l = 1 // a faulty memory system cannot bend time backwards
		}
		s.lat[i] = int32(l)
		if s.lat[i] > s.maxLat {
			s.maxLat = s.lat[i]
		}
	}
	if mem != nil {
		_, _, s.cacheMissRate = mem.Stats()
	}
	return nil
}

// oraclePaths returns the path index of every instruction, read off the
// trace's lazily built path segmentation.
func oraclePaths(tr *trace.Trace) []int32 {
	path := make([]int32, len(tr.Ins))
	ends := tr.Paths()
	pi := int32(0)
	for i := range tr.Ins {
		for int32(i) >= ends[pi] {
			pi++
		}
		path[i] = pi
	}
	return path
}

// equalTable compares two prepared tables element by element; a nil
// slice equals an empty one (the oracle leaves branch tables nil on a
// branchless trace).
func equalTable(a, b any) bool {
	switch x := a.(type) {
	case []int32:
		return slices.Equal(x, b.([]int32))
	case [][3]int32:
		return slices.Equal(x, b.([][3]int32))
	case []uint32:
		return slices.Equal(x, b.([]uint32))
	case []bool:
		return slices.Equal(x, b.([]bool))
	case []float64:
		return slices.Equal(x, b.([]float64))
	case []cfg.WriteSet:
		return slices.Equal(x, b.([]cfg.WriteSet))
	case [2][]uint8:
		y := b.([2][]uint8)
		return slices.Equal(x[0], y[0]) && slices.Equal(x[1], y[1])
	case [2][]uint64:
		y := b.([2][]uint64)
		return slices.Equal(x[0], y[0]) && slices.Equal(x[1], y[1])
	case Options:
		y := b.(Options)
		x.Mem, y.Mem = nil, nil // each preparation replays its own memory system
		return x == y
	}
	return reflect.DeepEqual(a, b)
}

// simDiff returns the name of every Sim field whose contents differ
// between got and want, the Oracle's Result and the event kernel's
// tables (kern.*) included; got's kernel tables are derived first, and
// want's are the oracle's eager ones. It walks the structs by
// reflection, so a table added later is compared without touching this
// test.
func simDiff(got, want *Sim) []string {
	got.kernel()
	var diff []string
	var walk func(prefix string, gv, wv reflect.Value)
	walk = func(prefix string, gv, wv reflect.Value) {
		for i := 0; i < gv.NumField(); i++ {
			name := prefix + gv.Type().Field(i).Name
			switch name {
			case "kernOnce":
				continue
			case "kern":
				walk("kern.", gv.Field(i), wv.Field(i))
				continue
			}
			if !equalTable(readField(gv.Field(i)), readField(wv.Field(i))) {
				diff = append(diff, name)
			}
		}
	}
	walk("", reflect.ValueOf(got).Elem(), reflect.ValueOf(want).Elem())
	return diff
}

// readField returns the value of a possibly unexported struct field.
func readField(f reflect.Value) any {
	return reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem().Interface()
}

// prepareCase is one preparation to check: the options, and fresh
// predictor and memory-system state for each side.
type prepareCase struct {
	name string
	opts Options
	pred func() predictor.Predictor
	mem  func() MemSystem // nil: opts.Mem stays unset
}

func twoBit() predictor.Predictor { return predictor.NewTwoBit() }

// prepareCases covers the option paths the preparation branches on:
// dependence mode, latencies, a cache, a fault-injecting memory system,
// and a predictor other than the 2-bit counter.
var prepareCases = []prepareCase{
	{name: "default", opts: DefaultOptions(), pred: twoBit},
	{name: "strictmem", opts: Options{Penalty: 1, StrictMemory: true}, pred: twoBit},
	{name: "realistic", opts: Options{Penalty: 1, Lat: RealisticLatencies()}, pred: twoBit},
	{name: "cache", opts: Options{Penalty: 1, Lat: RealisticLatencies(), Cache: &cache.Config{
		SizeBytes: 1024, LineBytes: 16, Ways: 2, HitLatency: 1, MissLatency: 9}}, pred: twoBit},
	{name: "faulty-mem", opts: DefaultOptions(), pred: twoBit, mem: func() MemSystem {
		c, err := cache.New(cache.Config{SizeBytes: 512, LineBytes: 16, Ways: 1, HitLatency: 1, MissLatency: 5})
		if err != nil {
			panic(err)
		}
		return faultinject.NewFaultyMem(c, 0.2, -3, 0.1, 3) // a delay below zero exercises the latency clamp
	}},
	{name: "pap2", opts: DefaultOptions(), pred: func() predictor.Predictor { return predictor.NewPAp(2) }},
	// Past 32 bits: a chain of 512 dependent ALU instructions finishes
	// after 2^31 cycles, so the build's Oracle takes its 64-bit path.
	{name: "long-times", opts: Options{Penalty: 1, Lat: Latencies{ALU: 1 << 22}}, pred: twoBit},
}

// checkPrepareAgainstOracle fails unless both entry points —
// NewContext over tr, and RecordContext over tr's program at limit, the
// limit tr was recorded with — prepare the tables prepareOracle builds
// from tr under c, field by field, the stored Oracle and the derived
// kernel tables included, and unless the stored Oracle is the unlimited
// EE-CD-MF pass's Result.
func checkPrepareAgainstOracle(t *testing.T, label string, tr *trace.Trace, limit uint64, c prepareCase) {
	t.Helper()
	prepare := func(f func(context.Context, *trace.Trace, predictor.Predictor, Options) (*Sim, error)) *Sim {
		opts := c.opts
		if c.mem != nil {
			opts.Mem = c.mem()
		}
		s, err := f(context.Background(), tr, c.pred(), opts)
		if err != nil {
			t.Fatalf("%s/%s: %v", label, c.name, err)
		}
		return s
	}
	record := func(ctx context.Context, tr *trace.Trace, pred predictor.Predictor, opts Options) (*Sim, error) {
		return RecordContext(ctx, tr.Prog, limit, pred, opts)
	}
	want := prepare(prepareOracle)
	for _, e := range []struct {
		name string
		f    func(context.Context, *trace.Trace, predictor.Predictor, Options) (*Sim, error)
	}{{"NewContext", NewContext}, {"RecordContext", record}} {
		got := prepare(e.f)
		if diff := simDiff(got, want); len(diff) > 0 {
			t.Fatalf("%s/%s: %s's one-pass build differs from the multi-pass oracle in %v", label, c.name, e.name, diff)
		}
		u, err := got.RunUnlimited(Model{dee.EE, CDMF})
		if err != nil {
			t.Fatal(err)
		}
		if u.ET = -1; u != got.Oracle() {
			t.Fatalf("%s/%s: %s's Oracle %+v, the unlimited EE-CD-MF pass %+v", label, c.name, e.name, got.Oracle(), u)
		}
	}
}

// TestPrepareMatchesOracleOnBenchInputs prepares every benchmark input
// at full length (short mode caps the traces) under every case.
func TestPrepareMatchesOracleOnBenchInputs(t *testing.T) {
	limit := uint64(0)
	if testing.Short() {
		limit = 50_000
	}
	for _, w := range bench.All() {
		for _, in := range w.Inputs {
			prog, err := in.Build(1)
			if err != nil {
				t.Fatal(err)
			}
			tr, err := trace.Record(prog, limit)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range prepareCases {
				checkPrepareAgainstOracle(t, w.Name+"/"+in.Name, tr, limit, c)
			}
		}
	}
}

func TestPrepareMatchesOracleOnSynthetic(t *testing.T) {
	for _, sc := range []bench.SyntheticConfig{
		bench.DefaultSynthetic(),
		{Iterations: 300, BranchesPerIter: 8, Bias: 50, Seed: 7, Work: 0},
		{Iterations: 1000, BranchesPerIter: 1, Bias: 99, Seed: 0xdead, Work: 6},
	} {
		prog, err := bench.BuildSynthetic(sc)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := trace.Record(prog, 200_000)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range prepareCases {
			checkPrepareAgainstOracle(t, fmt.Sprintf("synthetic%+v", sc), tr, 200_000, c)
		}
	}
}

// TestPrepareMatchesOracleAtTraceEnds cuts a trace so it ends on a
// conditional branch, in a branchless tail, and before its first branch
// (no branch at all), and prepares a program without branches.
func TestPrepareMatchesOracleAtTraceEnds(t *testing.T) {
	prog, err := bench.BuildSynthetic(bench.DefaultSynthetic())
	if err != nil {
		t.Fatal(err)
	}
	full, err := trace.Record(prog, 5_000)
	if err != nil {
		t.Fatal(err)
	}
	first := slices.IndexFunc(full.Ins, trace.DynInst.IsBranch)
	last := len(full.Ins) - 1
	for !full.Ins[last].IsBranch() {
		last--
	}
	if first < 1 || last+3 >= len(full.Ins) || full.Ins[last+2].IsBranch() {
		t.Fatalf("trace shape changed: first branch %d, last %d of %d", first, last, len(full.Ins))
	}
	cuts := map[string]int{
		"ends-on-branch":    last + 1,
		"branchless-tail":   last + 3,
		"first-branch-only": first + 1,
		"no-branch":         first,
	}
	for name, n := range cuts {
		tr, err := trace.Record(prog, uint64(n))
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range prepareCases {
			checkPrepareAgainstOracle(t, name, tr, uint64(n), c)
		}
	}
	straight := mustTrace(t, `
    li   $t0, 5
    addi $t1, $t0, 1
    sw   $t1, 0($zero)
    lw   $t2, 0($zero)
    add  $t3, $t2, $t1
    halt
`)
	for _, c := range prepareCases {
		checkPrepareAgainstOracle(t, "straight-line", straight, 0, c)
	}
}

// FuzzPrepare compares NewContext with the multi-pass oracle on
// synthetic traces and option sets decoded from the fuzz input.
func FuzzPrepare(f *testing.F) {
	f.Add(uint16(40), uint8(4), uint8(88), uint32(0x5e5e), uint8(3), uint16(0), uint8(0))
	f.Add(uint16(7), uint8(8), uint8(50), uint32(7), uint8(0), uint16(333), uint8(1))
	f.Add(uint16(90), uint8(1), uint8(99), uint32(0xdead), uint8(6), uint16(1), uint8(2))
	f.Add(uint16(25), uint8(3), uint8(70), uint32(42), uint8(2), uint16(900), uint8(5))
	f.Fuzz(func(t *testing.T, iters uint16, branches, bias uint8, seed uint32, work uint8, limit uint16, mode uint8) {
		sc := bench.SyntheticConfig{
			Iterations:      1 + int(iters)%200,
			BranchesPerIter: 1 + int(branches)%8,
			Bias:            int(bias) % 101,
			Seed:            seed,
			Work:            int(work) % 17,
		}
		prog, err := bench.BuildSynthetic(sc)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := trace.Record(prog, uint64(limit))
		if err != nil {
			t.Fatal(err)
		}
		checkPrepareAgainstOracle(t, fmt.Sprintf("%+v limit %d", sc, limit), tr, uint64(limit), prepareCases[int(mode)%len(prepareCases)])
	})
}

// BenchmarkPrepareBenchInputs prepares every bench input at full length
// from already recorded traces.
func BenchmarkPrepareBenchInputs(b *testing.B) {
	var trs []*trace.Trace
	insts := 0
	for _, w := range bench.All() {
		for _, in := range w.Inputs {
			prog, err := in.Build(1)
			if err != nil {
				b.Fatal(err)
			}
			tr, err := trace.Record(prog, 0)
			if err != nil {
				b.Fatal(err)
			}
			trs = append(trs, tr)
			insts += tr.Len()
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, tr := range trs {
			if _, err := NewContext(context.Background(), tr, predictor.NewTwoBit(), DefaultOptions()); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*insts), "ns/inst")
}

// BenchmarkRecordBenchInputs records and prepares every bench input at
// full length from its program, through RecordContext, and through
// trace.Record followed by NewContext, reporting ns and allocated bytes
// per instruction.
func BenchmarkRecordBenchInputs(b *testing.B) {
	var progs []*isa.Program
	insts := 0
	for _, w := range bench.All() {
		for _, in := range w.Inputs {
			prog, err := in.Build(1)
			if err != nil {
				b.Fatal(err)
			}
			tr, err := trace.Record(prog, 0)
			if err != nil {
				b.Fatal(err)
			}
			progs = append(progs, prog)
			insts += tr.Len()
		}
	}
	for _, v := range []struct {
		name    string
		prepare func(*isa.Program) (*Sim, error)
	}{
		{"RecordContext", func(p *isa.Program) (*Sim, error) {
			return RecordContext(context.Background(), p, 0, predictor.NewTwoBit(), DefaultOptions())
		}},
		{"Record+NewContext", func(p *isa.Program) (*Sim, error) {
			tr, err := trace.Record(p, 0)
			if err != nil {
				return nil, err
			}
			return NewContext(context.Background(), tr, predictor.NewTwoBit(), DefaultOptions())
		}},
	} {
		b.Run(v.name, func(b *testing.B) {
			var ms0, ms1 runtime.MemStats
			runtime.ReadMemStats(&ms0)
			for i := 0; i < b.N; i++ {
				for _, p := range progs {
					if _, err := v.prepare(p); err != nil {
						b.Fatal(err)
					}
				}
			}
			runtime.ReadMemStats(&ms1)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*insts), "ns/inst")
			b.ReportMetric(float64(ms1.TotalAlloc-ms0.TotalAlloc)/float64(b.N*insts), "B/inst")
		})
	}
}
