package trace

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"deesim/internal/bench"
	"deesim/internal/cpu"
	"deesim/internal/isa"
)

// recordOracle is the reference recorder: one slice grown by append,
// exactly as capture worked before chunking. RecordContext must give
// the same instructions.
func recordOracle(p *isa.Program, limit uint64) (*Trace, error) {
	t := &Trace{Prog: p}
	if limit > 0 {
		t.Ins = make([]DynInst, 0, min(limit, 1<<22))
	}
	c := cpu.New(p)
	c.Hook = func(idx int, in isa.Inst, taken bool, next int, memAddr uint32, result uint32) {
		t.Ins = append(t.Ins, DynInst{
			Static: int32(idx), Op: in.Op, Taken: taken, Next: int32(next), MemAddr: memAddr, Val: result,
		})
	}
	if err := c.RunContext(context.Background(), limit); err != nil {
		if _, truncated := err.(*cpu.ErrLimit); !truncated {
			return nil, err
		}
	}
	if len(t.Ins) == 0 {
		return nil, fmt.Errorf("trace: empty trace")
	}
	return t, nil
}

// buildXlisp is the longest bench input (~730k instructions): long
// enough to span many capture chunks.
func buildXlisp(t testing.TB) *isa.Program {
	t.Helper()
	prog, err := bench.BuildXlisp(1)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// TestRecordMatchesAppendOracle checks the chunked capture at limits
// around the chunk size and unlimited: the same instructions as the
// append recorder, in a slice with no spare capacity.
func TestRecordMatchesAppendOracle(t *testing.T) {
	prog := buildXlisp(t)
	for _, limit := range []uint64{1, chunkLen - 1, chunkLen, chunkLen + 1, 3*chunkLen + 7, 0} {
		got, err := Record(prog, limit)
		if err != nil {
			t.Fatal(err)
		}
		want, err := recordOracle(prog, limit)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got.Ins, want.Ins) {
			t.Fatalf("limit %d: %d instructions, oracle %d, or contents differ", limit, len(got.Ins), len(want.Ins))
		}
		if cap(got.Ins) != len(got.Ins) {
			t.Errorf("limit %d: cap %d, len %d", limit, cap(got.Ins), len(got.Ins))
		}
		if limit > 0 && uint64(len(got.Ins)) != limit {
			t.Errorf("limit %d: captured %d instructions", limit, len(got.Ins))
		}
		st, err := RecordStream(context.Background(), prog, limit)
		if err != nil {
			t.Fatal(err)
		}
		checkStream(t, fmt.Sprintf("limit %d: RecordStream", limit), st, want.Ins)
		checkStream(t, fmt.Sprintf("limit %d: Trace.Stream", limit), got.Stream(), want.Ins)
	}
}

// checkStream fails unless st holds exactly ins, in chunks no longer
// than the capture's, with its length and branch count.
func checkStream(t *testing.T, label string, st *Stream, ins []DynInst) {
	t.Helper()
	var all []DynInst
	for _, c := range st.Chunks {
		if len(c) == 0 || len(c) > chunkLen {
			t.Fatalf("%s: a chunk of %d instructions", label, len(c))
		}
		all = append(all, c...)
	}
	branches := 0
	for _, d := range ins {
		if d.IsBranch() {
			branches++
		}
	}
	if !slices.Equal(all, ins) || st.Len != len(ins) || st.Branches != branches {
		t.Fatalf("%s: %d instructions (Len %d, %d branches), want %d (%d branches)", label, len(all), st.Len, st.Branches, len(ins), branches)
	}
}

func TestRecordMatchesAppendOracleOnShortPrograms(t *testing.T) {
	for _, cfg := range []bench.SyntheticConfig{
		{Iterations: 1, BranchesPerIter: 1, Bias: 50, Seed: 1, Work: 0},
		bench.DefaultSynthetic(),
	} {
		prog, err := bench.BuildSynthetic(cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Record(prog, 0)
		if err != nil {
			t.Fatal(err)
		}
		want, err := recordOracle(prog, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got.Ins, want.Ins) || cap(got.Ins) != len(got.Ins) {
			t.Fatalf("%+v: %d/%d instructions (len/cap), oracle %d", cfg, len(got.Ins), cap(got.Ins), len(want.Ins))
		}
	}
}

// TestRecordAllocatesChunksPlusOneCopy pins the capture's allocation
// volume without timing: the chunks plus one exact copy, about 2x the
// trace, where growing one slice by append allocated about 5x.
func TestRecordAllocatesChunksPlusOneCopy(t *testing.T) {
	prog := buildXlisp(t)
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	tr, err := Record(prog, 0)
	runtime.ReadMemStats(&m1)
	if err != nil {
		t.Fatal(err)
	}
	perInst := float64(m1.TotalAlloc-m0.TotalAlloc) / float64(tr.Len())
	size := float64(unsafe.Sizeof(DynInst{}))
	t.Logf("%d instructions: %.1f B allocated per %.0f B instruction", tr.Len(), perInst, size)
	if perInst > 2.2*size {
		t.Errorf("capture allocated %.1f B per instruction, want <= %.1f (2.2 x %.0f B)", perInst, 2.2*size, size)
	}
}

// BenchmarkRecordBenchInputs records every bench input at full length.
func BenchmarkRecordBenchInputs(b *testing.B) {
	var progs []*isa.Program
	for _, w := range bench.All() {
		for _, in := range w.Inputs {
			prog, err := in.Build(1)
			if err != nil {
				b.Fatal(err)
			}
			progs = append(progs, prog)
		}
	}
	insts := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, prog := range progs {
			tr, err := Record(prog, 0)
			if err != nil {
				b.Fatal(err)
			}
			insts += tr.Len()
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(insts), "ns/inst")
}
