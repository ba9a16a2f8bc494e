package trace

import "deesim/internal/isa"

// NoDep marks the absence of a producing instruction: the value comes
// from the initial register file or memory image.
const NoDep = int32(-1)

// DataDeps holds the minimal (flow-only) data dependencies of a trace —
// what survives register renaming and perfect memory disambiguation,
// the paper's "minimal data dependencies" assumption.
type DataDeps struct {
	// Rs[k] / Rt[k] are the dynamic indices of the instructions that
	// produced instruction k's rs / rt register operands (NoDep when
	// the operand is the initial value, register zero, or unused).
	Rs, Rt []int32
	// Mem[k] is the producing store for a load (latest prior store to an
	// overlapping byte; NoDep when the value comes from the initial
	// memory image). Unused for non-loads.
	Mem []int32
}

// DataDeps scans the trace once and computes flow dependencies. With
// strictMem set, loads depend on the latest prior store regardless of
// address (the no-disambiguation ablation).
func (t *Trace) DataDeps(strictMem bool) *DataDeps {
	n := len(t.Ins)
	d := &DataDeps{
		Rs:  make([]int32, n),
		Rt:  make([]int32, n),
		Mem: make([]int32, n),
	}
	ops := make([]Operands, len(t.Prog.Code))
	for i, in := range t.Prog.Code {
		ops[i] = OperandsOf(in)
	}
	pr := NewProducers(strictMem)
	for i, din := range t.Ins {
		d.Rs[i], d.Rt[i], d.Mem[i] = pr.Next(ops[din.Static], din.MemAddr, int32(i))
	}
	return d
}

// Operands is what dependence tracking reads of one static instruction:
// the register slots of its rs and rt operands ($zero when the operand
// is not read, whose slot never has a producer), the slot it writes
// (NumRegs, a slot nothing reads, when it writes no register or
// $zero), and the bytes a load or store accesses (0 for neither).
type Operands struct {
	Rs, Rt, Dst isa.Reg
	Width       uint8
	Store       bool
}

// OperandsOf returns the operands of a static instruction.
func OperandsOf(in isa.Inst) Operands {
	o := Operands{Dst: isa.NumRegs}
	readsRs, readsRt := readsOf(in)
	if readsRs {
		o.Rs = in.Rs
	}
	if readsRt {
		o.Rt = in.Rt
	}
	if dst, ok := in.Dst(); ok && dst != isa.Zero {
		o.Dst = dst
	}
	switch isa.ClassOf(in.Op) {
	case isa.ClassLoad:
		o.Width = uint8(memWidth(in.Op))
	case isa.ClassStore:
		o.Width, o.Store = uint8(memWidth(in.Op)), true
	}
	return o
}

// Producers finds the minimal flow dependences of a trace one
// instruction at a time, in trace order: the latest writer of every
// register and, for loads, the latest store to an overlapping byte (or
// to any address under strict memory).
type Producers struct {
	last      [isa.NumRegs + 1]int32 // latest writer per register slot (see Operands)
	stores    storeTable
	lastStore int32
	strict    bool
}

// NewProducers returns a tracker at the start of a trace.
func NewProducers(strictMem bool) *Producers {
	p := &Producers{lastStore: NoDep, strict: strictMem}
	for i := range p.last {
		p.last[i] = NoDep
	}
	return p
}

// Next returns the producers of instruction i's rs and rt operands and
// of its loaded value (NoDep for each it has none of), then records i
// as the latest writer of what it writes.
func (p *Producers) Next(o Operands, addr uint32, i int32) (rs, rt, mem int32) {
	rs, rt = p.last[o.Rs], p.last[o.Rt]
	p.last[o.Dst] = i
	if o.Width == 0 {
		return rs, rt, NoDep
	}
	return rs, rt, p.access(o, addr, i)
}

// access is Next's memory half: a load's producing store, or a store
// recorded.
func (p *Producers) access(o Operands, addr uint32, i int32) int32 {
	if o.Store {
		if !p.strict {
			p.stores.store(addr, uint32(o.Width), i)
		}
		p.lastStore = i
		return NoDep
	}
	if p.strict {
		return p.lastStore
	}
	return p.stores.load(addr, uint32(o.Width))
}

// memWidth is the number of bytes a load or store accesses.
func memWidth(op isa.Op) uint32 {
	if op == isa.LB || op == isa.LBU || op == isa.SB {
		return 1
	}
	return 4
}

// storeTable records, per byte address, the latest store that wrote it.
// It is a three-level radix table over the 32-bit address space whose
// leaves hold one entry per byte of a 4 KiB page, allocated only for
// pages that some store touches. Any address works, aligned or not, and
// a multi-byte access wraps at the top of the address space.
type storeTable struct {
	dir [1 << 10]*[1 << 10]*[1 << 12]int32 // by addr bits 31..22, 21..12, 11..0
}

// entry returns the entry of the byte at addr. Without create it returns
// nil when no store has touched the byte's page.
func (t *storeTable) entry(addr uint32, create bool) *int32 {
	mid := t.dir[addr>>22]
	if mid == nil {
		if !create {
			return nil
		}
		mid = new([1 << 10]*[1 << 12]int32)
		t.dir[addr>>22] = mid
	}
	leaf := mid[addr>>12&(1<<10-1)]
	if leaf == nil {
		if !create {
			return nil
		}
		leaf = new([1 << 12]int32)
		for i := range leaf {
			leaf[i] = NoDep
		}
		mid[addr>>12&(1<<10-1)] = leaf
	}
	return &leaf[addr&(1<<12-1)]
}

// load returns the latest store to any of the width bytes at addr.
func (t *storeTable) load(addr, width uint32) int32 {
	dep := NoDep
	for i := uint32(0); i < width; i++ {
		if e := t.entry(addr+i, false); e != nil {
			dep = max(dep, *e)
		}
	}
	return dep
}

// store records store s as the latest writer of the width bytes at addr.
func (t *storeTable) store(addr, width uint32, s int32) {
	for i := uint32(0); i < width; i++ {
		*t.entry(addr+i, true) = s
	}
}

// readsOf reports which of the rs/rt register fields an instruction
// actually reads (consistent with isa.Inst.Src, but positional).
func readsOf(in isa.Inst) (rs, rt bool) {
	switch in.Op {
	case isa.NOP, isa.HALT, isa.J, isa.JAL, isa.LUI:
		return false, false
	case isa.ADD, isa.SUB, isa.AND, isa.OR, isa.XOR, isa.NOR, isa.SLT,
		isa.SLTU, isa.SLLV, isa.SRLV, isa.SRAV, isa.MUL, isa.DIV, isa.REM,
		isa.BEQ, isa.BNE, isa.BLT, isa.BGE, isa.SW, isa.SB:
		return true, true
	default:
		return true, false
	}
}
