// Package predictor implements the branch predictors the paper uses or
// discusses: the classic 2-bit saturating up/down counter (Smith, 1981 —
// the predictor of the paper's evaluation, initialized to the
// non-saturated taken state), PAp two-level adaptive prediction
// (Yeh & Patt, 1993 — the predictor §4.3 recommends for Levo, one history
// register and pattern table per static branch), plus simple static and
// oracle predictors for baselines and testing.
package predictor

import (
	"fmt"

	"deesim/internal/trace"
)

// Predictor predicts conditional branch directions, keyed by the static
// instruction index of the branch.
type Predictor interface {
	// Predict returns the predicted direction for the branch at static
	// index pc.
	Predict(pc int32) bool
	// Update trains the predictor with the branch's actual direction.
	Update(pc int32, taken bool)
	// Name identifies the predictor in reports.
	Name() string
}

// --- 2-bit saturating counter ---

// TwoBit is the classic per-branch 2-bit saturating up/down counter.
// States 0,1 predict not-taken; 2,3 predict taken. The paper initializes
// all counters to the non-saturated taken state (2).
//
// Counters live in a slice indexed by static id, grown on demand with
// new entries at the initial state, so a trace replay costs an index,
// not a map access. Negative pcs (no static instruction has one) fall
// back to a map, allocated on first use.
type TwoBit struct {
	counters []uint8
	neg      map[int32]uint8
}

// NewTwoBit returns a 2-bit counter predictor with one counter per static
// branch, initialized to weakly taken.
func NewTwoBit() *TwoBit { return &TwoBit{} }

func (p *TwoBit) Name() string { return "2bit" }

func (p *TwoBit) counter(pc int32) uint8 {
	if pc < 0 {
		if c, ok := p.neg[pc]; ok {
			return c
		}
	} else if int(pc) < len(p.counters) {
		return p.counters[pc]
	}
	return 2 // weakly taken: the paper's initial state
}

func (p *TwoBit) Predict(pc int32) bool { return p.counter(pc) >= 2 }

func (p *TwoBit) Update(pc int32, taken bool) {
	c := p.counter(pc)
	if taken {
		if c < 3 {
			c++
		}
	} else {
		if c > 0 {
			c--
		}
	}
	if pc < 0 {
		if p.neg == nil {
			p.neg = make(map[int32]uint8)
		}
		p.neg[pc] = c
		return
	}
	if int(pc) >= len(p.counters) {
		grown := make([]uint8, max(int(pc)+1, 2*len(p.counters), 64))
		n := copy(grown, p.counters)
		for i := n; i < len(grown); i++ {
			grown[i] = 2
		}
		p.counters = grown
	}
	p.counters[pc] = c
}

// --- PAp two-level adaptive ---

// PAp is per-address two-level adaptive prediction: each static branch
// has its own branch history register of historyBits bits and its own
// pattern history table of 2-bit counters indexed by the history. The
// paper suggests history length 2 with one pattern table per IQ row.
type PAp struct {
	historyBits uint
	mask        uint32
	history     map[int32]uint32
	tables      map[int32][]uint8
}

// NewPAp returns a PAp predictor with the given history length (1..16).
func NewPAp(historyBits uint) *PAp {
	if historyBits < 1 || historyBits > 16 {
		panic(fmt.Sprintf("predictor: PAp history length %d out of range", historyBits))
	}
	return &PAp{
		historyBits: historyBits,
		mask:        (1 << historyBits) - 1,
		history:     make(map[int32]uint32),
		tables:      make(map[int32][]uint8),
	}
}

func (p *PAp) Name() string { return fmt.Sprintf("pap%d", p.historyBits) }

func (p *PAp) table(pc int32) []uint8 {
	t, ok := p.tables[pc]
	if !ok {
		t = make([]uint8, 1<<p.historyBits)
		for i := range t {
			t[i] = 2 // weakly taken, consistent with TwoBit
		}
		p.tables[pc] = t
	}
	return t
}

func (p *PAp) Predict(pc int32) bool {
	return p.table(pc)[p.history[pc]&p.mask] >= 2
}

func (p *PAp) Update(pc int32, taken bool) {
	t := p.table(pc)
	h := p.history[pc] & p.mask
	c := t[h]
	if taken {
		if c < 3 {
			c++
		}
	} else {
		if c > 0 {
			c--
		}
	}
	t[h] = c
	bit := uint32(0)
	if taken {
		bit = 1
	}
	p.history[pc] = ((h << 1) | bit) & p.mask
}

// --- static & trivial predictors ---

// AlwaysTaken predicts taken for every branch.
type AlwaysTaken struct{}

func (AlwaysTaken) Name() string       { return "taken" }
func (AlwaysTaken) Predict(int32) bool { return true }
func (AlwaysTaken) Update(int32, bool) {}

// BTFN is the static backward-taken/forward-not-taken heuristic. It needs
// the branch targets, supplied as a map from static index to whether the
// branch is backward.
type BTFN struct {
	Backward map[int32]bool
}

func (BTFN) Name() string { return "btfn" }

func (p BTFN) Predict(pc int32) bool { return p.Backward[pc] }
func (BTFN) Update(int32, bool)      {}

// Fixed predicts a pre-recorded direction per dynamic occurrence; used by
// tests to force specific prediction streams. Directions are consumed
// in Update order is not needed: Predict pops the next recorded value.
type Fixed struct {
	Directions []bool
	next       int
}

func (p *Fixed) Name() string { return "fixed" }

func (p *Fixed) Predict(int32) bool {
	if p.next >= len(p.Directions) {
		return true
	}
	v := p.Directions[p.next]
	p.next++
	return v
}

func (p *Fixed) Update(int32, bool) {}

// --- accuracy measurement ---

// Accuracy runs the predictor over every dynamic conditional branch of
// the trace in order (predict, then update) and returns the fraction
// predicted correctly, plus the per-dynamic-branch correctness vector
// that the ILP simulator consumes.
func Accuracy(t *trace.Trace, p Predictor) (float64, []bool) {
	correct := make([]bool, 0, 1024)
	hits := 0
	for _, d := range t.Ins {
		if !d.IsBranch() {
			continue
		}
		pred := p.Predict(d.Static)
		ok := pred == d.Taken
		if ok {
			hits++
		}
		correct = append(correct, ok)
		p.Update(d.Static, d.Taken)
	}
	if len(correct) == 0 {
		return 1, correct
	}
	return float64(hits) / float64(len(correct)), correct
}

// New constructs a predictor by name: "2bit", "papN" (N = history bits),
// "spec-papN" (speculative-update PAp, §4.3), "taken". BTFN requires
// context and is built by callers.
func New(name string) (Predictor, error) {
	switch name {
	case "2bit":
		return NewTwoBit(), nil
	case "taken":
		return AlwaysTaken{}, nil
	}
	var n uint
	if _, err := fmt.Sscanf(name, "spec-pap%d", &n); err == nil && n >= 1 && n <= 16 {
		return NewSpecPAp(n), nil
	}
	if _, err := fmt.Sscanf(name, "pap%d", &n); err == nil && n >= 1 && n <= 16 {
		return NewPAp(n), nil
	}
	return nil, fmt.Errorf("predictor: unknown predictor %q", name)
}
