// Package dee implements the paper's primary contribution: Disjoint Eager
// Execution — the theory of cumulative-probability-greedy speculation
// (Theorem 1 and Corollary 1), the speculation-tree representation used
// in Figure 1, the static-tree heuristic of §3.1 with its closed-form
// geometry (Figure 2), and the coverage rules consumed by the ILP limit
// simulator (internal/ilpsim).
//
// # Model
//
// At any instant a machine has a set of pending (unresolved) branches.
// The code between consecutive branches is a branch path. Paths form a
// binary tree rooted at the current path: each pending branch has a
// PRedicted successor path (probability p, the predictor's accuracy) and
// a Not-PRedicted successor path (probability 1−p). A path's cumulative
// probability (cp) is the product of the local probabilities along the
// tree edges from the root.
//
// A speculation strategy with ET branch-path resources selects ET tree
// nodes to execute speculatively:
//
//   - SP (single path / branch prediction) selects the all-predicted
//     chain of length ET.
//   - EE (eager execution) selects complete tree levels: both sides of
//     every branch, to depth lEE where 2^(lEE+1)−2 ≤ ET.
//   - DEE selects greedily by descending cp (Theorem 1: placing
//     resources on the highest-cp idle path maximizes expected
//     performance). DEE degenerates to SP as p→1 and to EE as p→0.5.
//
// The practical static-tree heuristic fixes the shape at design time: a
// mainline (ML) of l predicted paths plus a triangular DEE region of
// height and width hDEE; the side path leaving the d-th mainline branch
// (1-based, d ≤ hDEE) follows the not-predicted arc and then predictions
// for a total of hDEE−d+1 paths.
package dee

import (
	"container/heap"
	"fmt"
	"math"
	"sort"
	"strings"
)

// Turn is one edge of the speculation tree.
type Turn byte

const (
	// Pred is the predicted arc (local probability p).
	Pred Turn = 'P'
	// NotPred is the not-predicted arc (local probability 1−p).
	NotPred Turn = 'N'
)

// Node identifies a branch path in the speculation tree by the sequence
// of turns from the root. The empty string is the root path (the code
// up to the first pending branch); it consumes no speculation resources.
type Node string

// Depth is the node's level in the tree; the root has depth 0.
func (n Node) Depth() int { return len(n) }

// CP returns the node's cumulative probability for uniform prediction
// accuracy p.
func (n Node) CP(p float64) float64 {
	cp := 1.0
	for i := 0; i < len(n); i++ {
		if Turn(n[i]) == Pred {
			cp *= p
		} else {
			cp *= 1 - p
		}
	}
	return cp
}

// Children returns the predicted and not-predicted successor nodes.
func (n Node) Children() (pred, npred Node) {
	return n + Node(Pred), n + Node(NotPred)
}

// Tree is a selected set of speculation-tree nodes (branch paths), each
// with its resource-assignment order (1-based, as the circled numbers in
// Figure 1). A Tree never contains the root node; selection sets are
// always downward closed (every non-root node's parent with depth ≥ 1 is
// also selected).
//
// A Tree is immutable once built; all query methods (Contains, Rank,
// ContainsBits, ...) are safe for concurrent use.
type Tree struct {
	P     float64
	Order []Node       // Order[i] is the (i+1)-th path assigned resources
	rank  map[Node]int // node -> 1-based assignment order

	// trie mirrors rank as a pointer-free binary trie so membership can
	// be answered from a turn bitset without materializing a Node string
	// (ContainsBits — the simulator's hot coverage path). trie[i] holds
	// the child indices of trie node i (0 = absent; the root is trie[0])
	// and selected[i] records whether the node is in the selection set.
	trie     [][2]int32
	selected []bool
}

func newTree(p float64) *Tree {
	return &Tree{
		P:        p,
		rank:     make(map[Node]int),
		trie:     make([][2]int32, 1), // root
		selected: make([]bool, 1),
	}
}

func (t *Tree) add(n Node) {
	if _, dup := t.rank[n]; dup {
		panic(fmt.Sprintf("dee: node %q selected twice", string(n)))
	}
	t.Order = append(t.Order, n)
	t.rank[n] = len(t.Order)
	// Extend the trie along the node's turn sequence.
	cur := int32(0)
	for i := 0; i < len(n); i++ {
		arc := 0
		if Turn(n[i]) == Pred {
			arc = 1
		}
		next := t.trie[cur][arc]
		if next == 0 {
			next = int32(len(t.trie))
			t.trie = append(t.trie, [2]int32{})
			t.selected = append(t.selected, false)
			t.trie[cur][arc] = next
		}
		cur = next
	}
	t.selected[cur] = true
}

// Size is the number of selected branch paths (the resources used, ET).
func (t *Tree) Size() int { return len(t.Order) }

// BitVec is a fixed-capacity bitset over window depths: bit i is the
// "known direction" (equivalently "correctly predicted") flag of pending
// branch B_i. The simulator keeps its per-cycle known/scratch vectors in
// this form and feeds them straight to the coverage queries
// (Shape.CoveredBits, Tree.ContainsBits) without re-materializing bool
// slices or Node strings.
type BitVec []uint64

// NewBitVec returns a vector with capacity for n bits, all clear.
func NewBitVec(n int) BitVec { return make(BitVec, (n+63)/64) }

// Get reports bit i.
func (v BitVec) Get(i int) bool { return v[i>>6]&(1<<(uint(i)&63)) != 0 }

// Set sets bit i.
func (v BitVec) Set(i int) { v[i>>6] |= 1 << (uint(i) & 63) }

// Clear clears bit i.
func (v BitVec) Clear(i int) { v[i>>6] &^= 1 << (uint(i) & 63) }

// Reset clears every bit.
func (v BitVec) Reset() {
	for i := range v {
		v[i] = 0
	}
}

// CopyFrom overwrites v with src (equal capacity assumed).
func (v BitVec) CopyFrom(src BitVec) { copy(v, src) }

// ContainsBits reports whether the depth-j branch path identified by the
// first j bits of v (bit set = the Pred arc, clear = NotPred) is in the
// tree — Contains without the Node-string materialization. The root
// (j = 0) is always contained.
func (t *Tree) ContainsBits(v BitVec, j int) bool {
	cur := int32(0)
	for i := 0; i < j; i++ {
		arc := 0
		if v.Get(i) {
			arc = 1
		}
		if cur = t.trie[cur][arc]; cur == 0 {
			return false
		}
	}
	return j == 0 || t.selected[cur]
}

// Contains reports whether the branch path identified by the turn
// sequence is in the tree. The root (empty node) is always contained.
func (t *Tree) Contains(n Node) bool {
	if len(n) == 0 {
		return true
	}
	_, ok := t.rank[n]
	return ok
}

// Rank returns the 1-based resource-assignment order of a node, or 0 if
// the node is not selected.
func (t *Tree) Rank(n Node) int { return t.rank[n] }

// TotalCP is the summed cumulative probability of the selected paths —
// the Ptot performance objective of Theorem 1 with one unit resource per
// path.
func (t *Tree) TotalCP() float64 {
	sum := 0.0
	for _, n := range t.Order {
		sum += n.CP(t.P)
	}
	return sum
}

// Height is the maximum depth of any selected node — the paper's "depth
// of speculation" l for the strategy.
func (t *Tree) Height() int {
	h := 0
	for _, n := range t.Order {
		if n.Depth() > h {
			h = n.Depth()
		}
	}
	return h
}

// --- greedy construction (pure DEE, Theorem 1) ---

type candidate struct {
	node Node
	cp   float64
}

type candHeap []candidate

func (h candHeap) Len() int { return len(h) }
func (h candHeap) Less(i, j int) bool {
	if h[i].cp != h[j].cp {
		return h[i].cp > h[j].cp
	}
	// Deterministic tie-break: shallower first, then lexicographic
	// ('N' < 'P' in ASCII): at equal cp and depth, the continuation of
	// an earlier wrong turn wins over starting a new side path — the
	// same philosophy as the static heuristic's composite DEE paths.
	if d1, d2 := h[i].node.Depth(), h[j].node.Depth(); d1 != d2 {
		return d1 < d2
	}
	return h[i].node < h[j].node
}
func (h candHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *candHeap) Push(x interface{}) { *h = append(*h, x.(candidate)) }
func (h *candHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// BuildGreedy constructs the pure (theoretical) DEE tree for uniform
// prediction accuracy p and et branch-path resources, by Theorem 1's rule
// of greatest marginal benefit: repeatedly assign the next resource to
// the unselected path with the highest cumulative probability.
// p must be in (0.5, 1) for strict DEE semantics, but any p in (0, 1) is
// accepted (p = 0.5 reproduces eager execution level by level).
func BuildGreedy(p float64, et int) *Tree {
	if p <= 0 || p >= 1 {
		panic(fmt.Sprintf("dee: prediction accuracy %v out of (0,1)", p))
	}
	if et < 0 {
		panic("dee: negative resources")
	}
	t := newTree(p)
	var h candHeap
	pred, npred := Node("").Children()
	heap.Push(&h, candidate{pred, pred.CP(p)})
	heap.Push(&h, candidate{npred, npred.CP(p)})
	for t.Size() < et && h.Len() > 0 {
		c := heap.Pop(&h).(candidate)
		t.add(c.node)
		cp, cn := c.node.Children()
		heap.Push(&h, candidate{cp, cp.CP(p)})
		heap.Push(&h, candidate{cn, cn.CP(p)})
	}
	return t
}

// BuildGreedyLocal generalizes BuildGreedy to per-level local
// probabilities: the arcs leaving a depth-d node carry probability ps[d]
// (predicted) and 1−ps[d] (not predicted); depths beyond len(ps) reuse
// the last entry. This models the paper's "theoretically perfect" DEE
// (§3), where each pending branch contributes its own estimated
// prediction accuracy to the cumulative products — the computation the
// paper deems impractical in hardware and replaces with the static
// heuristic. Probabilities are clamped into [0.505, 0.995].
//
// The tree's P field holds ps[0]; per-node cps must be computed against
// ps, not Node.CP.
func BuildGreedyLocal(ps []float64, et int) *Tree {
	if len(ps) == 0 {
		panic("dee: BuildGreedyLocal needs at least one probability")
	}
	clamp := func(p float64) float64 {
		if p < 0.505 {
			return 0.505
		}
		if p > 0.995 {
			return 0.995
		}
		return p
	}
	at := func(d int) float64 {
		if d >= len(ps) {
			return clamp(ps[len(ps)-1])
		}
		return clamp(ps[d])
	}
	t := newTree(at(0))
	var h candHeap
	pred, npred := Node("").Children()
	heap.Push(&h, candidate{pred, at(0)})
	heap.Push(&h, candidate{npred, 1 - at(0)})
	for t.Size() < et && h.Len() > 0 {
		c := heap.Pop(&h).(candidate)
		t.add(c.node)
		d := c.node.Depth() // children live at depth d, edges use at(d)
		cp, cn := c.node.Children()
		heap.Push(&h, candidate{cp, c.cp * at(d)})
		heap.Push(&h, candidate{cn, c.cp * (1 - at(d))})
	}
	return t
}

// BuildSP constructs the single-path (branch prediction) tree: the
// all-predicted chain of length et.
func BuildSP(p float64, et int) *Tree {
	t := newTree(p)
	n := Node("")
	for i := 0; i < et; i++ {
		n += Node(Pred)
		t.add(n)
	}
	return t
}

// EEHeight returns the eager-execution tree height lEE for et resources:
// the largest l with 2^(l+1)−2 ≤ et (complete levels only).
func EEHeight(et int) int {
	l := 0
	for (1<<(l+2))-2 <= et {
		l++
	}
	return l
}

// BuildEE constructs the eager-execution tree: all paths of every level
// down to EEHeight(et), assigned breadth-first in descending cp within a
// level.
func BuildEE(p float64, et int) *Tree {
	t := newTree(p)
	lee := EEHeight(et)
	level := []Node{""}
	for d := 1; d <= lee; d++ {
		next := make([]Node, 0, 2*len(level))
		for _, n := range level {
			pr, np := n.Children()
			next = append(next, pr, np)
		}
		sort.Slice(next, func(i, j int) bool {
			ci, cj := next[i].CP(p), next[j].CP(p)
			if ci != cj {
				return ci > cj
			}
			return next[i] < next[j]
		})
		for _, n := range next {
			t.add(n)
		}
		level = next
	}
	return t
}

// --- static-tree heuristic (§3.1) ---

// LogP1MP returns log_p(1−p), the expected mainline overhang of the
// static tree. It grows without bound as p→1.
func LogP1MP(p float64) float64 {
	return math.Log(1-p) / math.Log(p)
}

// StaticShape computes the static DEE tree dimensions of §3.1 for
// prediction accuracy p and et total branch-path resources. It returns
// the mainline length l and the DEE region height/width h (hDEE = wDEE),
// with l + h(h+1)/2 == et. When the closed form yields no valid DEE
// region (small et or very high p — the paper notes DEE degenerates to
// SP when every candidate side path's cp is below the last mainline
// path's cp), it returns h = 0 and l = et: the SP chain.
func StaticShape(p float64, et int) (l, h int) {
	if p <= 0.5 || p >= 1 {
		panic(fmt.Sprintf("dee: static shape requires p in (0.5,1), got %v", p))
	}
	if et <= 0 {
		return 0, 0
	}
	lg := LogP1MP(p)
	disc := 8*float64(et) - 8*lg + 17
	if disc < 0 {
		return et, 0
	}
	hf := -1.5 + math.Sqrt(disc)/2
	h = int(math.Round(hf))
	if h < 1 {
		return et, 0
	}
	// Enforce exact resource accounting and a mainline at least as long
	// as the DEE region is tall (the paper's trees satisfy l >= h since
	// l = h + log_p(1-p) - 1 and log_p(1-p) >= 1 for p > 0.5).
	for h > 0 && et-h*(h+1)/2 < maxInt(h, 1) {
		h--
	}
	l = et - h*(h+1)/2
	// Validity: a non-empty DEE region requires (1-p) > p^l, i.e. the
	// first side path must out-rank the path after the mainline's end.
	if h > 0 && math.Pow(p, float64(l)) >= 1-p {
		return et, 0
	}
	return l, h
}

// StaticET returns the closed-form total resources ET(p, h) of §3.1:
// ET = log_p(1−p) + h²/2 + 3h/2 − 1.
func StaticET(p float64, h int) float64 {
	hf := float64(h)
	return LogP1MP(p) + hf*hf/2 + 1.5*hf - 1
}

// StaticL returns the closed-form mainline length l(p, h) of §3.1:
// l = h + log_p(1−p) − 1.
func StaticL(p float64, h int) float64 {
	return float64(h) + LogP1MP(p) - 1
}

// BuildStatic constructs the static-heuristic DEE tree: a mainline of l
// predicted paths plus the triangular DEE region. Resource assignment
// order is mainline first, then side paths by descending cp (as Figure 1
// and Theorem 1 dictate for equal-shape trees).
func BuildStatic(p float64, et int) *Tree {
	l, h := StaticShape(p, et)
	t := newTree(p)
	n := Node("")
	var mainline []Node
	for i := 0; i < l; i++ {
		n += Node(Pred)
		mainline = append(mainline, n)
		t.add(n)
	}
	// Side paths: from the branch ending mainline path d (1-based d ≤ h),
	// one NotPred turn then predictions, total length h−d+1.
	type side struct {
		node Node
		cp   float64
	}
	var sides []side
	for d := 1; d <= h; d++ {
		prefix := Node(strings.Repeat(string(Pred), d-1)) + Node(NotPred)
		node := prefix
		for k := 0; k < h-d+1; k++ {
			sides = append(sides, side{node, node.CP(p)})
			node += Node(Pred)
		}
	}
	sort.Slice(sides, func(i, j int) bool {
		if sides[i].cp != sides[j].cp {
			return sides[i].cp > sides[j].cp
		}
		return sides[i].node < sides[j].node
	})
	for _, s := range sides {
		t.add(s.node)
	}
	return t
}

// --- coverage rules for the trace-driven simulator ---

// Strategy selects a speculation model's tree-coverage rule.
type Strategy int

const (
	// SP: mainline only, truncated at the first mispredicted pending
	// branch.
	SP Strategy = iota
	// EE: both sides of every pending branch to depth lEE; mispredicts
	// do not truncate coverage.
	EE
	// DEE: static-heuristic mainline + triangular DEE region; one
	// mispredict within the DEE region is covered by its side path.
	DEE
	// DEEPure: membership in the greedy (Theorem 1) tree.
	DEEPure
	// DEEProfile: the dynamic, per-branch-probability greedy tree the
	// paper's §3 deems impractical to build in hardware — implemented in
	// the simulator (which can afford it) to quantify how much the
	// static heuristic leaves on the table. The tree is rebuilt from the
	// profiled accuracies of the pending branches whenever the window
	// moves; internal/ilpsim implements the rebuild.
	DEEProfile
)

func (s Strategy) String() string {
	switch s {
	case SP:
		return "SP"
	case EE:
		return "EE"
	case DEE:
		return "DEE"
	case DEEPure:
		return "DEE-pure"
	case DEEProfile:
		return "DEE-profile"
	}
	return "strategy?"
}

// Shape is a strategy instantiated with resources; it answers, for the
// simulator's window, which trace branch paths are covered by the
// speculation tree given the prediction correctness of the pending
// branches.
type Shape struct {
	Strategy Strategy
	P        float64 // characteristic prediction accuracy (design-time)
	ET       int     // branch-path resources

	ML  int // mainline length (SP: ET; DEE: l)
	H   int // DEE region height (0 for SP/EE)
	LEE int // EE tree height (0 otherwise)

	tree *Tree // DEEPure only
}

// NewShape builds the coverage shape for a strategy. p is the
// characteristic (design-time) prediction accuracy used to size the
// static tree; it does not need to match the run-time predictor exactly,
// mirroring the paper's design flow (§3.1 steps 1–3).
func NewShape(strategy Strategy, p float64, et int) Shape {
	s := Shape{Strategy: strategy, P: p, ET: et}
	switch strategy {
	case SP:
		s.ML = et
	case EE:
		s.LEE = EEHeight(et)
	case DEE:
		s.ML, s.H = StaticShape(p, et)
	case DEEPure:
		s.tree = BuildGreedy(p, et)
	default:
		panic("dee: unknown strategy")
	}
	return s
}

// MaxDepth is the deepest path index (relative to the window root) that
// could ever be covered — the window never needs to look further ahead.
func (s Shape) MaxDepth() int {
	switch s.Strategy {
	case SP:
		return s.ML
	case EE:
		return s.LEE
	case DEE:
		return s.ML // mainline is the longest locus (l >= h+1... l >= h)
	case DEEPure:
		return s.tree.Height()
	}
	return 0
}

// Covered reports whether trace path P_j (j >= 1, the j-th path below
// the window root P_0) is covered, given correct[i] = "pending branch
// B_i was correctly predicted" for i in [0, j). P_0 is always covered
// and should not be queried. correct must have at least j entries.
func (s Shape) Covered(correct []bool, j int) bool {
	if j < 1 {
		return true
	}
	switch s.Strategy {
	case SP:
		if j > s.ML {
			return false
		}
		for i := 0; i < j; i++ {
			if !correct[i] {
				return false
			}
		}
		return true
	case EE:
		return j <= s.LEE
	case DEE:
		mis := -1 // position of first mispredict before j
		for i := 0; i < j; i++ {
			if !correct[i] {
				if mis >= 0 {
					return false // second mispredict: outside any side path
				}
				mis = i
			}
		}
		if mis < 0 {
			return j <= s.ML
		}
		// One mispredict at B_mis = paper depth d = mis+1. Its side path
		// exists when d <= h and consists of nodes at absolute depths
		// d..h (the triangle: length h-d+1), so window path P_j is on it
		// iff j <= h. Tests verify this closed form coincides with
		// membership in the BuildStatic tree.
		d := mis + 1
		return d <= s.H && j <= s.H
	case DEEPure:
		if j > s.tree.Height() {
			return false
		}
		turns := make([]byte, j)
		for i := 0; i < j; i++ {
			if correct[i] {
				turns[i] = byte(Pred)
			} else {
				turns[i] = byte(NotPred)
			}
		}
		return s.tree.Contains(Node(turns))
	}
	return false
}

// CoveredBits is Covered with the correctness prefix supplied as a
// bitset (bit i set = pending branch B_i correctly predicted / known).
// Semantics are identical to Covered over the equivalent bool slice; the
// closed-form shapes reduce to popcount-style scans and DEEPure walks
// the tree's trie, so no per-query allocation occurs.
func (s Shape) CoveredBits(v BitVec, j int) bool {
	if j < 1 {
		return true
	}
	switch s.Strategy {
	case SP:
		if j > s.ML {
			return false
		}
		for i := 0; i < j; i++ {
			if !v.Get(i) {
				return false
			}
		}
		return true
	case EE:
		return j <= s.LEE
	case DEE:
		mis := -1
		for i := 0; i < j; i++ {
			if !v.Get(i) {
				if mis >= 0 {
					return false
				}
				mis = i
			}
		}
		if mis < 0 {
			return j <= s.ML
		}
		return mis+1 <= s.H && j <= s.H
	case DEEPure:
		if j > s.tree.Height() {
			return false
		}
		return s.tree.ContainsBits(v, j)
	}
	return false
}

// CoveredCounts is a fast-path equivalent of Covered for the closed-form
// shapes (SP, EE, DEE): coverage of path P_j depends only on how many of
// the branches B_0..B_{j-1} have unknown direction (falseCount) and the
// window depth of the first such branch (firstFalse, meaningful only
// when falseCount > 0). DEEPure needs the full pattern and must use
// Covered; calling CoveredCounts on it panics.
func (s Shape) CoveredCounts(falseCount, firstFalse, j int) bool {
	if j < 1 {
		return true
	}
	switch s.Strategy {
	case SP:
		return falseCount == 0 && j <= s.ML
	case EE:
		return j <= s.LEE
	case DEE:
		if falseCount == 0 {
			return j <= s.ML
		}
		return falseCount == 1 && firstFalse+1 <= s.H && j <= s.H
	}
	panic("dee: CoveredCounts unsupported for " + s.Strategy.String())
}

// CoveredDepth is the coverage horizon of the closed-form shapes (SP,
// EE, DEE): given the window depths first < second of the first two
// unknown-direction pending branches (-1 when absent), paths P_0..P_j
// are covered for every j up to the returned depth and no deeper path
// up to MaxDepth is. It agrees with CoveredCounts on 1..MaxDepth, so a
// simulator can stop its window walk there instead of querying every
// depth. DEEPure has no such horizon; calling CoveredDepth on it
// panics.
func (s Shape) CoveredDepth(first, second int) int {
	switch s.Strategy {
	case SP:
		if first < 0 {
			return s.ML
		}
		return min(first, s.ML)
	case EE:
		return s.LEE
	case DEE:
		if first < 0 {
			return s.ML
		}
		if first+1 > s.H {
			return min(first, s.ML) // no side path below the first mispredict
		}
		if second < 0 {
			return s.H
		}
		return min(second, s.H)
	}
	panic("dee: CoveredDepth unsupported for " + s.Strategy.String())
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// --- Corollary 1: resource assignment under path saturation ---

// Alloc records processing elements assigned to one branch path.
type Alloc struct {
	Path  Node
	Units int
}

// AllocateSaturating distributes et processing elements over speculative
// branch paths by the paper's rule of Greatest Marginal Benefit
// (Theorem 1 + Corollary 1): all remaining resources go to the most
// likely idle path until that path saturates — can productively use no
// more PEs — and then to the next most likely, repeating. saturation is
// the per-path PE limit (the maximum number of instructions a branch
// path can execute in parallel); saturation <= 0 panics, and
// saturation = 1 reduces to the one-PE-per-path tree of BuildGreedy.
func AllocateSaturating(p float64, et, saturation int) []Alloc {
	if saturation <= 0 {
		panic("dee: saturation must be positive")
	}
	if p <= 0 || p >= 1 {
		panic(fmt.Sprintf("dee: prediction accuracy %v out of (0,1)", p))
	}
	var h candHeap
	pred, npred := Node("").Children()
	heap.Push(&h, candidate{pred, pred.CP(p)})
	heap.Push(&h, candidate{npred, npred.CP(p)})
	var out []Alloc
	remaining := et
	for remaining > 0 && h.Len() > 0 {
		c := heap.Pop(&h).(candidate)
		units := saturation
		if units > remaining {
			units = remaining
		}
		out = append(out, Alloc{Path: c.node, Units: units})
		remaining -= units
		cp, cn := c.node.Children()
		heap.Push(&h, candidate{cp, cp.CP(p)})
		heap.Push(&h, candidate{cn, cn.CP(p)})
	}
	return out
}

// ExpectedWork is the Ptot objective of Theorem 1 for an allocation:
// each path's assigned units weighted by its probability of being
// needed.
func ExpectedWork(p float64, allocs []Alloc) float64 {
	total := 0.0
	for _, a := range allocs {
		total += float64(a.Units) * a.Path.CP(p)
	}
	return total
}
