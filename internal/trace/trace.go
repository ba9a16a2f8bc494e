// Package trace defines the dynamic instruction trace consumed by the ILP
// limit simulator, its capture from the functional simulator, and the
// branch-path segmentation and statistics the paper's methodology uses
// (a "branch path" is the dynamic code between branches, including the
// exit branch — §2 of the paper).
package trace

import (
	"context"
	"fmt"

	"deesim/internal/cpu"
	"deesim/internal/isa"
)

// DynInst is one retired dynamic instruction.
type DynInst struct {
	// Static is the instruction's index in Program.Code.
	Static int32
	// Op is the operation (copied out for locality).
	Op isa.Op
	// Taken is meaningful for control transfers: whether it redirected.
	Taken bool
	// Next is the dynamic successor's static index.
	Next int32
	// MemAddr is the effective address for loads and stores.
	MemAddr uint32
	// Val is the architectural result of the instruction: the value
	// written to the destination register (loads included), or zero for
	// instructions writing none. The Levo model validates its dataflow
	// wiring against these values.
	Val uint32
}

// IsBranch reports whether the dynamic instruction is a conditional
// branch (the unit the speculation models reason about).
func (d DynInst) IsBranch() bool { return isa.IsCondBranch(d.Op) }

// Trace is a dynamic instruction stream plus the program it came from.
type Trace struct {
	Prog *isa.Program
	Ins  []DynInst

	// paths[i] is the index into Ins one past the end of branch path i.
	// Computed lazily by Paths.
	pathEnds []int32
}

// Record runs the program on the functional simulator, capturing up to
// limit dynamic instructions (0 = unlimited, bounded only by HALT). A
// program that exceeds the limit yields a truncated trace and no error,
// matching the paper's "up to 100 million instructions" methodology.
func Record(p *isa.Program, limit uint64) (*Trace, error) {
	return RecordContext(context.Background(), p, limit)
}

// RecordContext is Record with cooperative cancellation: the functional
// simulator checks ctx every few thousand retired instructions, so a
// deadline bounds trace capture as well as simulation.
func RecordContext(ctx context.Context, p *isa.Program, limit uint64) (*Trace, error) {
	st, err := RecordStream(ctx, p, limit)
	if err != nil {
		return nil, err
	}
	return &Trace{Prog: p, Ins: st.concat()}, nil
}

// Stream is a dynamic instruction stream as the recorder captures it:
// fixed-size chunks in trace order, so a long run never regrows (and
// re-copies) one slice. A consumer that reads the stream once, in
// order, can take it as it is; RecordContext copies it into one slice.
type Stream struct {
	Prog   *isa.Program
	Chunks [][]DynInst
	// Len is the number of instructions in all chunks, and Branches the
	// number of conditional branches among them.
	Len, Branches int
}

// chunkLen is the capacity, in instructions, of one capture chunk
// (640 KiB).
const chunkLen = 1 << 15

// RecordStream is RecordContext without the copy into one slice: it
// returns the captured chunks.
func RecordStream(ctx context.Context, p *isa.Program, limit uint64) (*Stream, error) {
	st := &Stream{Prog: p}
	var cur []DynInst // chunk being filled
	left := limit     // instructions the limit still allows; 0 = unlimited
	c := cpu.New(p)
	c.Hook = func(idx int, in isa.Inst, taken bool, next int, memAddr uint32, result uint32) {
		if len(cur) == cap(cur) {
			// Retire the filled chunk and start one no larger than the
			// limit still allows. The CPU retires at most limit
			// instructions, so a limit used up exactly never gets here.
			if cur != nil {
				st.Chunks = append(st.Chunks, cur)
			}
			size := uint64(chunkLen)
			if left > 0 {
				size = min(size, left)
				left -= size
			}
			cur = make([]DynInst, 0, size)
		}
		if isa.IsCondBranch(in.Op) {
			st.Branches++
		}
		cur = append(cur, DynInst{
			Static:  int32(idx),
			Op:      in.Op,
			Taken:   taken,
			Next:    int32(next),
			MemAddr: memAddr,
			Val:     result,
		})
	}
	err := c.RunContext(ctx, limit)
	if err != nil {
		if _, truncated := err.(*cpu.ErrLimit); !truncated {
			return nil, err
		}
	}
	if len(cur) > 0 {
		st.Chunks = append(st.Chunks, cur)
	}
	for _, ch := range st.Chunks {
		st.Len += len(ch)
	}
	if st.Len == 0 {
		return nil, fmt.Errorf("trace: empty trace")
	}
	return st, nil
}

// concat returns the stream's instructions in one slice with cap ==
// len: the only chunk itself when it is exactly full, otherwise one
// exact copy.
func (s *Stream) concat() []DynInst {
	if len(s.Chunks) == 1 && len(s.Chunks[0]) == cap(s.Chunks[0]) {
		return s.Chunks[0]
	}
	ins := make([]DynInst, 0, s.Len)
	for _, c := range s.Chunks {
		ins = append(ins, c...)
	}
	return ins
}

// Stream returns the trace as a stream over its instructions, in
// capture-sized chunks that share Ins's storage.
func (t *Trace) Stream() *Stream {
	st := &Stream{Prog: t.Prog, Len: len(t.Ins)}
	for i := 0; i < len(t.Ins); i += chunkLen {
		st.Chunks = append(st.Chunks, t.Ins[i:min(i+chunkLen, len(t.Ins))])
	}
	for _, d := range t.Ins {
		if d.IsBranch() {
			st.Branches++
		}
	}
	return st
}

// Validate checks the trace's referential integrity against its program:
// every dynamic instruction's static index must be in range, its opcode
// must match the static instruction it claims to be, and its successor
// index must be in range or one past the end (fallthrough to HALT). A
// corrupted stream — truncated mid-transfer, bit-flipped indices or
// opcodes — is rejected here with a descriptive error instead of
// panicking deep inside a simulator's precompute.
func (t *Trace) Validate() error {
	if t.Prog == nil || len(t.Prog.Code) == 0 {
		return fmt.Errorf("trace: nil or empty program")
	}
	if len(t.Ins) == 0 {
		return fmt.Errorf("trace: empty instruction stream")
	}
	n := int32(len(t.Prog.Code))
	for i, d := range t.Ins {
		if d.Static < 0 || d.Static >= n {
			return fmt.Errorf("trace: instruction %d has static index %d outside program [0,%d)", i, d.Static, n)
		}
		if got := t.Prog.Code[d.Static].Op; d.Op != got {
			return fmt.Errorf("trace: instruction %d claims op %v but program[%d] is %v", i, d.Op, d.Static, got)
		}
		if d.Next < 0 || d.Next > n {
			return fmt.Errorf("trace: instruction %d has successor %d outside program [0,%d]", i, d.Next, n)
		}
	}
	return nil
}

// Len is the number of dynamic instructions.
func (t *Trace) Len() int { return len(t.Ins) }

// Paths segments the trace into branch paths: each path is a maximal run
// of instructions ending with a conditional branch (or with the final
// instruction of the trace). Unconditional jumps do not end a path — the
// speculation models only spend tree resources on conditional branches;
// jumps never mispredict. The return value is a slice of end offsets:
// path i covers Ins[start(i):end(i)) with start(i)=end(i-1).
func (t *Trace) Paths() []int32 {
	if t.pathEnds != nil {
		return t.pathEnds
	}
	var ends []int32
	for i, d := range t.Ins {
		if d.IsBranch() {
			ends = append(ends, int32(i+1))
		}
	}
	if n := int32(len(t.Ins)); len(ends) == 0 || ends[len(ends)-1] != n {
		ends = append(ends, n)
	}
	t.pathEnds = ends
	return ends
}

// NumPaths is the number of branch paths in the trace.
func (t *Trace) NumPaths() int { return len(t.Paths()) }

// PathBounds returns the [start, end) dynamic-instruction range of path i.
func (t *Trace) PathBounds(i int) (start, end int32) {
	ends := t.Paths()
	if i > 0 {
		start = ends[i-1]
	}
	return start, ends[i]
}

// PathBranch returns the dynamic index of the branch terminating path i,
// or -1 if the path is the trailing branchless tail.
func (t *Trace) PathBranch(i int) int32 {
	_, end := t.PathBounds(i)
	if end > 0 && t.Ins[end-1].IsBranch() {
		return end - 1
	}
	return -1
}

// Stats summarizes the properties the paper's §5.1 discusses.
type Stats struct {
	DynInsts          int     // dynamic instruction count
	CondBranches      int     // dynamic conditional branches
	Jumps             int     // dynamic unconditional transfers
	Loads, Stores     int     // dynamic memory operations
	TakenRate         float64 // fraction of conditional branches taken
	BranchDensity     float64 // conditional branches per instruction
	MeanPathLen       float64 // mean branch-path length in instructions
	StaticInsts       int     // program size
	StaticBranches    int     // static conditional branch sites
	BackwardTakenRate float64 // taken rate of backward branches
}

// ComputeStats walks the trace once.
func (t *Trace) ComputeStats() Stats {
	s := Stats{DynInsts: len(t.Ins), StaticInsts: len(t.Prog.Code)}
	taken := 0
	backTaken, backTotal := 0, 0
	staticBr := make(map[int32]struct{})
	for _, d := range t.Ins {
		switch {
		case d.IsBranch():
			s.CondBranches++
			staticBr[d.Static] = struct{}{}
			if d.Taken {
				taken++
			}
			if backward := t.Prog.Code[d.Static].Imm <= d.Static; backward {
				backTotal++
				if d.Taken {
					backTaken++
				}
			}
		case isa.ClassOf(d.Op) == isa.ClassJump:
			s.Jumps++
		case isa.ClassOf(d.Op) == isa.ClassLoad:
			s.Loads++
		case isa.ClassOf(d.Op) == isa.ClassStore:
			s.Stores++
		}
	}
	s.StaticBranches = len(staticBr)
	if s.CondBranches > 0 {
		s.TakenRate = float64(taken) / float64(s.CondBranches)
		s.BranchDensity = float64(s.CondBranches) / float64(s.DynInsts)
		s.MeanPathLen = float64(s.DynInsts) / float64(t.NumPaths())
	}
	if backTotal > 0 {
		s.BackwardTakenRate = float64(backTaken) / float64(backTotal)
	}
	return s
}

// LoopCaptureRate reports the fraction of dynamic taken-backward-branch
// loop bodies whose span (branch index − target index + 1) fits within a
// static window of iqSize instructions. The paper (§4.2) reports >70% of
// SPECint92 conditional-backward-branch loops fitting an IQ of length 32.
func (t *Trace) LoopCaptureRate(iqSize int) float64 {
	fits, total := 0, 0
	for _, d := range t.Ins {
		if !d.IsBranch() || !d.Taken {
			continue
		}
		target := t.Prog.Code[d.Static].Imm
		if target > d.Static {
			continue // forward branch
		}
		total++
		if int(d.Static-target)+1 <= iqSize {
			fits++
		}
	}
	if total == 0 {
		return 0
	}
	return float64(fits) / float64(total)
}
