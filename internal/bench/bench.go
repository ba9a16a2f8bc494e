// Package bench provides the evaluation workloads: five programs written
// for the reproduction ISA that stand in for the paper's five SPECint92
// integer benchmarks (cc1, compress, eqntott, espresso, xlisp), plus a
// parameterized synthetic branch workload for property tests and sweeps.
//
// The stand-ins are real programs (they compute real results, validated
// by tests against Go reference implementations), chosen so each mirrors
// the branch character of its original:
//
//   - cc1:      tokenizer + recursive-descent expression parser/evaluator
//     over synthetic source text (irregular, data-dependent
//     branching — the paper's worst performer).
//   - compress: 12-bit LZW compressor with an open-addressing dictionary
//     (hash probe hit/miss branching).
//   - eqntott:  quicksort of bit-vector terms through a multiword compare
//     routine (long predictable loops — the original's enormous
//     oracle parallelism came from exactly this structure).
//   - espresso: cube cover/intersection passes over bitvector sets with
//     early-exit inner loops (run on four generated inputs; the
//     paper's espresso datum is the harmonic mean of its four).
//   - xlisp:    a stack-machine bytecode interpreter (dispatch-heavy,
//     like a Lisp evaluator) running collatz and recursive
//     fibonacci bytecode.
//
// Every input is generated deterministically from fixed seeds.
package bench

import (
	"fmt"
	"sort"
	"strings"

	"deesim/internal/isa"
)

// Input is one (program, input data) pair of a workload.
type Input struct {
	Name  string
	Build func(scale int) (*isa.Program, error)
}

// Workload is one benchmark: a program with one or more inputs. A
// workload's datum in the Figure 5 reproduction is the harmonic mean over
// its inputs (only espresso has more than one, as in the paper).
type Workload struct {
	Name        string
	Description string
	Inputs      []Input
}

// DefaultScale is the input-size multiplier used when callers pass
// scale <= 0. Scale 1 targets roughly 200k–500k dynamic instructions per
// input — the paper ran up to 100M; the cap is a methodological knob, not
// a structural one.
const DefaultScale = 1

// All returns the five paper workloads in the paper's order.
func All() []Workload {
	return []Workload{
		{
			Name:        "cc1",
			Description: "tokenizer + recursive-descent parser/evaluator (GCC stand-in)",
			Inputs:      []Input{{Name: "expr", Build: BuildCC1}},
		},
		{
			Name:        "compress",
			Description: "12-bit LZW compressor (compress stand-in)",
			Inputs:      []Input{{Name: "in", Build: BuildCompress}},
		},
		{
			Name:        "eqntott",
			Description: "bit-vector term quicksort (eqntott stand-in)",
			Inputs:      []Input{{Name: "pri3", Build: BuildEqntott}},
		},
		{
			Name:        "espresso",
			Description: "cube cover/intersection passes (espresso stand-in)",
			Inputs: []Input{
				{Name: "bca", Build: espressoInput(0xbca)},
				{Name: "cps", Build: espressoInput(0xc25)},
				{Name: "ti", Build: espressoInput(0x71)},
				{Name: "tial", Build: espressoInput(0x71a7)},
			},
		},
		{
			Name:        "xlisp",
			Description: "stack-machine bytecode interpreter (xlisp stand-in)",
			Inputs:      []Input{{Name: "prog", Build: BuildXlisp}},
		},
	}
}

// ByName finds a workload.
func ByName(name string) (Workload, error) {
	for _, w := range All() {
		if w.Name == name {
			return w, nil
		}
	}
	return Workload{}, fmt.Errorf("bench: unknown workload %q", name)
}

// Select returns the named workloads in the order given; an empty list
// selects every workload. Names are trimmed of spaces, and an unknown
// or blank one is an error.
func Select(names []string) ([]Workload, error) {
	if len(names) == 0 {
		return All(), nil
	}
	out := make([]Workload, 0, len(names))
	for _, n := range names {
		w, err := ByName(strings.TrimSpace(n))
		if err != nil {
			return nil, err
		}
		out = append(out, w)
	}
	return out, nil
}

// SelectFlag resolves a CLI -bench value: "all", or comma-separated
// names with blank entries skipped.
func SelectFlag(s string) ([]Workload, error) {
	if s == "all" {
		return All(), nil
	}
	var names []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			names = append(names, f)
		}
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("empty workload list")
	}
	return Select(names)
}

// Names returns the workload names in order.
func Names() []string {
	ws := All()
	names := make([]string, len(ws))
	for i, w := range ws {
		names[i] = w.Name
	}
	return names
}

// --- deterministic input generation ---

// rng is a xorshift32 PRNG; fixed seeds make every input reproducible.
type rng uint32

func newRNG(seed uint32) *rng {
	if seed == 0 {
		seed = 0x9e3779b9
	}
	r := rng(seed)
	return &r
}

func (r *rng) next() uint32 {
	x := uint32(*r)
	x ^= x << 13
	x ^= x >> 17
	x ^= x << 5
	*r = rng(x)
	return x
}

// intn returns a value in [0, n).
func (r *rng) intn(n int) int {
	return int(r.next() % uint32(n))
}

// zipf returns a Zipf-ish biased index in [0, n): low indices much more
// likely, approximated by taking the min of two uniform draws repeatedly.
func (r *rng) zipf(n int) int {
	v := r.intn(n)
	for i := 0; i < 2; i++ {
		if w := r.intn(n); w < v {
			v = w
		}
	}
	return v
}

// --- data poking helpers ---

// setBytes writes b into the program's initial data image at the given
// data label plus byte offset. The label's .space reservation must be
// large enough.
func setBytes(p *isa.Program, label string, off int, b []byte) error {
	addr, ok := p.DataSymbols[label]
	if !ok {
		return fmt.Errorf("bench: no data label %q", label)
	}
	start := int(addr-p.DataBase) + off
	if start < 0 || start+len(b) > len(p.Data) {
		return fmt.Errorf("bench: %q+%d..+%d outside data image (%d bytes)", label, off, off+len(b), len(p.Data))
	}
	copy(p.Data[start:], b)
	return nil
}

// setWord writes a little-endian word at label + wordIndex*4.
func setWord(p *isa.Program, label string, wordIndex int, v uint32) error {
	return setBytes(p, label, wordIndex*4, []byte{
		byte(v), byte(v >> 8), byte(v >> 16), byte(v >> 24),
	})
}

// wordsToBytes flattens words little-endian.
func wordsToBytes(ws []uint32) []byte {
	out := make([]byte, 4*len(ws))
	for i, w := range ws {
		out[4*i] = byte(w)
		out[4*i+1] = byte(w >> 8)
		out[4*i+2] = byte(w >> 16)
		out[4*i+3] = byte(w >> 24)
	}
	return out
}

// ReadResultWords extracts n little-endian words at the "result" data
// label from a finished CPU memory image; used by tests to validate the
// workloads against Go reference implementations.
func ReadResultWords(p *isa.Program, mem interface{ LoadWord(uint32) uint32 }, n int) ([]uint32, error) {
	addr, ok := p.DataSymbols["result"]
	if !ok {
		return nil, fmt.Errorf("bench: program has no result label")
	}
	out := make([]uint32, n)
	for i := range out {
		out[i] = mem.LoadWord(addr + uint32(4*i))
	}
	return out, nil
}

// clampScale normalizes a scale argument.
func clampScale(scale int) int {
	if scale <= 0 {
		return DefaultScale
	}
	if scale > 64 {
		return 64
	}
	return scale
}

// sortedKeys is a tiny test/debug helper for deterministic map walks.
func sortedKeys(m map[string]uint32) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
