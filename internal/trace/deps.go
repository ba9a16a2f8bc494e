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
	var lastWrite [isa.NumRegs]int32
	for i := range lastWrite {
		lastWrite[i] = NoDep
	}
	var stores storeTable
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
				d.Mem[i] = stores.load(din.MemAddr, memWidth(din.Op))
			}
		case isa.ClassStore:
			if !strictMem {
				stores.store(din.MemAddr, memWidth(din.Op), int32(i))
			}
			lastStore = int32(i)
		}

		if dst, ok := in.Dst(); ok && dst != isa.Zero {
			lastWrite[dst] = int32(i)
		}
	}
	return d
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
