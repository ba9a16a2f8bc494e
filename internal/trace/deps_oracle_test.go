package trace

import (
	"math/rand"
	"slices"
	"testing"

	"deesim/internal/bench"
	"deesim/internal/isa"
)

// dataDepsOracle is the map-keyed reference for DataDeps: one map entry
// per stored-to byte address. DataDeps must agree with it on every
// trace.
func dataDepsOracle(t *Trace, strictMem bool) *DataDeps {
	n := len(t.Ins)
	d := &DataDeps{
		Rs:  make([]int32, n),
		Rt:  make([]int32, n),
		Mem: make([]int32, n),
	}
	var lastWrite [isa.NumRegs]int32
	for i := range lastWrite {
		lastWrite[i] = NoDep
	}
	lastStoreAt := make(map[uint32]int32)
	lastStore := NoDep

	for i, din := range t.Ins {
		in := t.Prog.Code[din.Static]
		d.Rs[i], d.Rt[i], d.Mem[i] = NoDep, NoDep, NoDep
		readsRs, readsRt := readsOf(in)
		if readsRs && in.Rs != isa.Zero {
			d.Rs[i] = lastWrite[in.Rs]
		}
		if readsRt && in.Rt != isa.Zero {
			d.Rt[i] = lastWrite[in.Rt]
		}

		switch isa.ClassOf(din.Op) {
		case isa.ClassLoad:
			if strictMem {
				d.Mem[i] = lastStore
			} else {
				width := uint32(4)
				if din.Op == isa.LB || din.Op == isa.LBU {
					width = 1
				}
				dep := NoDep
				for b := uint32(0); b < width; b++ {
					if s, ok := lastStoreAt[din.MemAddr+b]; ok && s > dep {
						dep = s
					}
				}
				d.Mem[i] = dep
			}
		case isa.ClassStore:
			width := uint32(4)
			if din.Op == isa.SB {
				width = 1
			}
			for b := uint32(0); b < width; b++ {
				lastStoreAt[din.MemAddr+b] = int32(i)
			}
			lastStore = int32(i)
		}

		if dst, ok := in.Dst(); ok && dst != isa.Zero {
			lastWrite[dst] = int32(i)
		}
	}
	return d
}

// checkAgainstOracle fails unless DataDeps and dataDepsOracle agree on
// tr, with and without strict memory.
func checkAgainstOracle(t *testing.T, label string, tr *Trace) {
	t.Helper()
	for _, strict := range []bool{false, true} {
		got, want := tr.DataDeps(strict), dataDepsOracle(tr, strict)
		for _, f := range []struct {
			name      string
			got, want []int32
		}{{"Rs", got.Rs, want.Rs}, {"Rt", got.Rt, want.Rt}, {"Mem", got.Mem, want.Mem}} {
			if !slices.Equal(f.got, f.want) {
				for k := range f.want {
					if f.got[k] != f.want[k] {
						t.Fatalf("%s strictMem=%v: %s[%d] = %d, oracle %d (%v @%#x)",
							label, strict, f.name, k, f.got[k], f.want[k], tr.Ins[k].Op, tr.Ins[k].MemAddr)
					}
				}
			}
		}
	}
}

// TestDataDepsMatchesOracleOnBenchInputs runs every benchmark input at
// full length (short mode caps the traces).
func TestDataDepsMatchesOracleOnBenchInputs(t *testing.T) {
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
			tr, err := Record(prog, limit)
			if err != nil {
				t.Fatal(err)
			}
			checkAgainstOracle(t, w.Name+"/"+in.Name, tr)
		}
	}
}

func TestDataDepsMatchesOracleOnSynthetic(t *testing.T) {
	for _, cfg := range []bench.SyntheticConfig{
		bench.DefaultSynthetic(),
		{Iterations: 300, BranchesPerIter: 8, Bias: 50, Seed: 7, Work: 0},
		{Iterations: 1000, BranchesPerIter: 1, Bias: 99, Seed: 0xdead, Work: 6},
	} {
		prog, err := bench.BuildSynthetic(cfg)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := Record(prog, 200_000)
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstOracle(t, "synthetic", tr)
	}
}

// memOp is one access of a hand-built load/store stream.
type memOp struct {
	op   isa.Op
	addr uint32
}

// memCode is the program hand-built memory traces index into: one
// static instruction per access kind, each load writing $t2.
var memCode = []isa.Inst{
	{Op: isa.SW, Rs: isa.Reg(8), Rt: isa.Reg(9)},
	{Op: isa.SB, Rs: isa.Reg(8), Rt: isa.Reg(9)},
	{Op: isa.LW, Rd: isa.Reg(10), Rs: isa.Reg(8)},
	{Op: isa.LB, Rd: isa.Reg(10), Rs: isa.Reg(8)},
	{Op: isa.LBU, Rd: isa.Reg(10), Rs: isa.Reg(8)},
}

// memTrace builds a trace of the given accesses. Trace does not require
// aligned addresses (only the CPU faults on them), so neither does this.
func memTrace(ops []memOp) *Trace {
	tr := &Trace{Prog: &isa.Program{Code: memCode}}
	for _, o := range ops {
		static := int32(slices.IndexFunc(memCode, func(in isa.Inst) bool { return in.Op == o.op }))
		tr.Ins = append(tr.Ins, DynInst{Static: static, Op: o.op, Next: static, MemAddr: o.addr})
	}
	return tr
}

// memOps are the access kinds of a hand-built stream.
var memOps = []isa.Op{isa.SW, isa.SB, isa.LW, isa.LB, isa.LBU}

func TestDataDepsMatchesOracleOnUnalignedAccesses(t *testing.T) {
	// Every access kind at every byte offset around the edges the store
	// table has: a word, a 4 KiB leaf, a 4 MiB directory entry, and the
	// top of the address space, where a word access wraps to address 0.
	edges := []uint32{0, 0x1000, 0x40_0000, 0x7fff_f000, 0x8000_0000}
	var ops []memOp
	for _, e := range edges {
		for off := uint32(0); off < 8; off++ {
			for _, op := range memOps {
				ops = append(ops, memOp{op, e - 4 + off})
			}
		}
	}
	// Overlapping writes: a word, a byte inside it, a word straddling it,
	// then every load that reads any of those bytes.
	for _, a := range []uint32{0x2000, 0x2ffe, 0xffff_fffe} {
		ops = append(ops,
			memOp{isa.SW, a}, memOp{isa.SB, a + 2}, memOp{isa.SW, a + 1},
			memOp{isa.SB, a + 5}, memOp{isa.SB, a + 4}, memOp{isa.SB, a + 6}, memOp{isa.SB, a + 7},
		)
		for off := uint32(0); off < 8; off++ {
			for _, op := range []isa.Op{isa.LW, isa.LB, isa.LBU} {
				ops = append(ops, memOp{op, a - 1 + off})
			}
		}
	}
	checkAgainstOracle(t, "edges", memTrace(ops))
}

func TestDataDepsMatchesOracleOnRandomStreams(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 50; round++ {
		base := []uint32{0x1000, 0x3ffffe, 0x7fffffff, 0xfffffff0}[round%4]
		ops := make([]memOp, 2000)
		for i := range ops {
			ops[i] = memOp{memOps[rng.Intn(len(memOps))], base + uint32(rng.Intn(64))}
		}
		checkAgainstOracle(t, "random", memTrace(ops))
	}
}

// FuzzDataDeps compares DataDeps with the oracle on load/store streams
// decoded from the fuzz input: each 3 bytes pick an access kind and an
// offset from a fuzz-chosen base address.
func FuzzDataDeps(f *testing.F) {
	f.Add(uint32(0x1000), []byte{0, 0, 0, 1, 2, 0, 2, 0, 0, 3, 2, 0})
	f.Add(uint32(0x0fff), []byte{0, 1, 0, 4, 0, 0, 1, 3, 0, 2, 2, 0})
	f.Add(uint32(0xfffffffe), []byte{0, 0, 0, 1, 1, 0, 2, 0, 0, 2, 255, 255})
	f.Fuzz(func(t *testing.T, base uint32, stream []byte) {
		var ops []memOp
		for ; len(stream) >= 3; stream = stream[3:] {
			off := uint32(stream[1]) | uint32(stream[2])<<8
			ops = append(ops, memOp{memOps[int(stream[0])%len(memOps)], base + off})
		}
		if len(ops) == 0 {
			return
		}
		checkAgainstOracle(t, "fuzz", memTrace(ops))
	})
}
