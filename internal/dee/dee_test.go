package dee

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestNodeCP(t *testing.T) {
	cases := []struct {
		n    Node
		p    float64
		want float64
	}{
		{"", 0.7, 1},
		{"P", 0.7, 0.7},
		{"N", 0.7, 0.3},
		{"PP", 0.7, 0.49},
		{"PN", 0.7, 0.21},
		{"NP", 0.7, 0.21},
		{"NN", 0.7, 0.09},
		{"PPPP", 0.7, 0.2401},
	}
	for _, c := range cases {
		if got := c.n.CP(c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("CP(%q, %v) = %v, want %v", string(c.n), c.p, got, c.want)
		}
	}
}

// TestFigure1DEE reproduces the DEE tree of Figure 1: p = 0.7, six branch
// path resources. The paper's resource-assignment order: three mainline
// paths (cp .7, .49, .343), then the not-predicted root path (cp .3) out
// of order — because .3 > .24 — then the fourth mainline path (.2401),
// then a .21 path. The tree height is 4 (the paper's lDEE = 4).
func TestFigure1DEE(t *testing.T) {
	tr := BuildGreedy(0.7, 6)
	wantOrder := []Node{"P", "PP", "PPP", "N", "PPPP", "NP"}
	if len(tr.Order) != len(wantOrder) {
		t.Fatalf("tree size %d, want %d", len(tr.Order), len(wantOrder))
	}
	for i, want := range wantOrder {
		if tr.Order[i] != want {
			t.Errorf("assignment %d = %q, want %q", i+1, string(tr.Order[i]), string(want))
		}
	}
	if h := tr.Height(); h != 4 {
		t.Errorf("lDEE = %d, want 4 (paper Figure 1)", h)
	}
	// The decisive comparison the paper walks through: path 4 is the
	// not-predicted root arc (cp .3), preferred over the fourth
	// mainline path (cp .2401).
	if tr.Rank("N") != 4 {
		t.Errorf("N assigned at %d, want 4", tr.Rank("N"))
	}
	if tr.Rank("PPPP") != 5 {
		t.Errorf("PPPP assigned at %d, want 5", tr.Rank("PPPP"))
	}
}

// TestFigure1SP: the SP tree is the all-predicted chain; path 6 has
// cumulative probability 0.7^6 ≈ 0.12, the number printed in the figure.
func TestFigure1SP(t *testing.T) {
	tr := BuildSP(0.7, 6)
	if h := tr.Height(); h != 6 {
		t.Errorf("lSP = %d, want 6", h)
	}
	last := tr.Order[5]
	if got := last.CP(0.7); math.Abs(got-0.117649) > 1e-9 {
		t.Errorf("cp of SP path 6 = %v, want 0.1176 (≈.12 in the figure)", got)
	}
}

// TestFigure1EE: the EE tree with six resources has two full levels
// (lEE = 2), with level-2 cps .49, .21, .21, .09.
func TestFigure1EE(t *testing.T) {
	tr := BuildEE(0.7, 6)
	if h := tr.Height(); h != 2 {
		t.Errorf("lEE = %d, want 2", h)
	}
	if tr.Size() != 6 {
		t.Errorf("EE tree size %d, want 6", tr.Size())
	}
	for _, n := range []Node{"P", "N", "PP", "PN", "NP", "NN"} {
		if !tr.Contains(n) {
			t.Errorf("EE tree missing %q", string(n))
		}
	}
}

// TestFigure2Shape reproduces the static tree of Figure 2: p = 0.90,
// ET = 34 branch paths gives a mainline of l = 24 and a DEE region of
// hDEE = 4 (10 side paths, 24 + 10 = 34).
func TestFigure2Shape(t *testing.T) {
	l, h := StaticShape(0.90, 34)
	if l != 24 || h != 4 {
		t.Fatalf("StaticShape(0.90, 34) = (l=%d, h=%d), want (24, 4)", l, h)
	}
	tr := BuildStatic(0.90, 34)
	if tr.Size() != 34 {
		t.Errorf("static tree size %d, want 34", tr.Size())
	}
	// Figure 2 labels: mainline cps .90, .81, .73, .66...; side-path
	// first segments .10, .09, .08, .07.
	checks := []struct {
		n    Node
		want float64
	}{
		{"P", 0.90}, {"PP", 0.81}, {"PPP", 0.729}, {"PPPP", 0.6561},
		{"N", 0.10}, {"PN", 0.09}, {"PPN", 0.081}, {"PPPN", 0.0729},
	}
	for _, c := range checks {
		if !tr.Contains(c.n) {
			t.Errorf("static tree missing %q", string(c.n))
			continue
		}
		if got := c.n.CP(0.90); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("cp(%q) = %v, want %v", string(c.n), got, c.want)
		}
	}
	// Deepest side-path node: from the root branch, one wrong turn then
	// h−1 = 3 predictions — ends at absolute depth 4 (= hDEE).
	if !tr.Contains("NPPP") {
		t.Error("static tree missing deepest side path node NPPP")
	}
	if tr.Contains("NPPPP") {
		t.Error("static tree contains NPPPP beyond the triangle")
	}
	// Triangle accounting: 4+3+2+1 = 10 side paths.
	sides := 0
	for _, n := range tr.Order {
		if strings.ContainsRune(string(n), rune(NotPred)) {
			sides++
		}
	}
	if sides != 10 {
		t.Errorf("side paths = %d, want 10", sides)
	}
}

// TestStaticFormulae checks the §3.1 closed forms around Figure 2's
// operating point.
func TestStaticFormulae(t *testing.T) {
	p := 0.90
	if lg := LogP1MP(p); math.Abs(lg-21.8543) > 0.01 {
		t.Errorf("log_p(1-p) = %v, want ≈21.854", lg)
	}
	if et := StaticET(p, 4); math.Abs(et-34.85) > 0.01 {
		t.Errorf("ET(0.9, 4) = %v, want ≈34.85", et)
	}
	if l := StaticL(p, 4); math.Abs(l-24.85) > 0.01 {
		t.Errorf("l(0.9, 4) = %v, want ≈24.85", l)
	}
}

// TestStaticShapeDegeneratesToSP: with few resources (or very accurate
// prediction) the DEE region is empty and the static tree is the SP
// chain — the reason the paper's Figure 5 curves coincide at and below
// 16 paths.
func TestStaticShapeDegeneratesToSP(t *testing.T) {
	for _, et := range []int{1, 2, 4, 8, 16} {
		l, h := StaticShape(0.9053, et)
		if h != 0 || l != et {
			t.Errorf("StaticShape(0.9053, %d) = (l=%d, h=%d), want SP chain (l=%d, h=0)", et, l, h, et)
		}
	}
	// At 32 the paper's operating point has a DEE region.
	_, h := StaticShape(0.9053, 32)
	if h == 0 {
		t.Error("StaticShape(0.9053, 32) should have a non-empty DEE region")
	}
}

// TestStaticResourceAccounting: l + h(h+1)/2 must equal ET exactly for
// every valid configuration.
func TestStaticResourceAccounting(t *testing.T) {
	for _, p := range []float64{0.6, 0.7, 0.8, 0.85, 0.9, 0.95, 0.99} {
		for et := 1; et <= 512; et *= 2 {
			l, h := StaticShape(p, et)
			if l+h*(h+1)/2 != et {
				t.Errorf("p=%v ET=%d: l=%d h=%d does not account for all resources", p, et, l, h)
			}
			if h > 0 && l < h {
				t.Errorf("p=%v ET=%d: mainline %d shorter than DEE height %d", p, et, l, h)
			}
			if tr := BuildStatic(p, et); tr.Size() != et {
				t.Errorf("p=%v ET=%d: BuildStatic size %d", p, et, tr.Size())
			}
		}
	}
}

// TestTheorem1Greedy: the greedy tree maximizes total cp over random
// downward-closed selections of the same size (Theorem 1 / Corollary 1,
// "greatest marginal benefit").
func TestTheorem1Greedy(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		p := 0.55 + 0.44*rng.Float64()
		et := 1 + rng.Intn(40)
		greedy := BuildGreedy(p, et)

		// Random downward-closed selection of size et: repeatedly pick a
		// random frontier node.
		frontier := []Node{"P", "N"}
		total := 0.0
		for i := 0; i < et; i++ {
			j := rng.Intn(len(frontier))
			n := frontier[j]
			frontier = append(frontier[:j], frontier[j+1:]...)
			total += n.CP(p)
			pr, np := n.Children()
			frontier = append(frontier, pr, np)
		}
		if greedy.TotalCP() < total-1e-9 {
			t.Fatalf("p=%v et=%d: greedy Ptot %v < random selection %v", p, et, greedy.TotalCP(), total)
		}
	}
}

// TestSubsumption: DEE becomes SP as p→1 and eager execution as p→0.5
// (§2: "DEE subsumes both SP and eager execution").
func TestSubsumption(t *testing.T) {
	// Near-perfect prediction: the greedy tree is the mainline chain.
	sp := BuildGreedy(0.99, 20)
	for i, n := range sp.Order {
		if strings.ContainsRune(string(n), rune(NotPred)) {
			t.Fatalf("p=0.99: node %d = %q is off the mainline", i, string(n))
		}
	}
	// Coin-flip prediction: the greedy tree fills complete levels
	// breadth-first (eager execution). With ties the tie-break is
	// shallower-first, so 2^(l+1)-2 nodes make full levels.
	ee := BuildGreedy(0.500001, 14)
	byDepth := map[int]int{}
	for _, n := range ee.Order {
		byDepth[n.Depth()]++
	}
	if byDepth[1] != 2 || byDepth[2] != 4 || byDepth[3] != 8 {
		t.Errorf("p≈0.5 greedy levels = %v, want complete levels 2/4/8", byDepth)
	}
}

// TestGreedyMatchesStaticHeuristicRegion: for moderate p the greedy
// (pure) tree and the static heuristic agree on the broad structure:
// both contain the full mainline of the static tree's length or the
// static tree's side paths rank below mainline prefixes with higher cp.
func TestGreedyDownwardClosed(t *testing.T) {
	check := func(p float64, et int) bool {
		if p <= 0.5 || p >= 0.995 || et < 0 || et > 300 {
			return true
		}
		tr := BuildGreedy(p, et)
		for _, n := range tr.Order {
			parent := n[:len(n)-1]
			if len(parent) > 0 && !tr.Contains(parent) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(7))}
	if err := quick.Check(func(pRaw uint16, etRaw uint16) bool {
		p := 0.5 + float64(pRaw%490)/1000.0 + 0.001
		et := int(etRaw % 300)
		return check(p, et)
	}, cfg); err != nil {
		t.Error(err)
	}
}

// TestGreedyDescendingCP: greedy assignment order must be in
// non-increasing cp order — that is the optimality invariant.
func TestGreedyDescendingCP(t *testing.T) {
	for _, p := range []float64{0.6, 0.75, 0.9, 0.97} {
		tr := BuildGreedy(p, 100)
		prev := math.Inf(1)
		for i, n := range tr.Order {
			cp := n.CP(p)
			if cp > prev+1e-12 {
				t.Errorf("p=%v: assignment %d (%q) cp %v above previous %v", p, i+1, string(n), cp, prev)
			}
			prev = cp
		}
	}
}

// TestCoverageClosedFormsMatchTrees: Shape.Covered and CoveredCounts
// must agree with literal membership in the constructed trees for
// every correctness pattern up to the tree depth.
func TestCoverageClosedFormsMatchTrees(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	configs := []struct {
		strategy Strategy
		p        float64
		et       int
	}{
		{SP, 0.9, 12}, {EE, 0.9, 30}, {DEE, 0.9, 34}, {DEE, 0.85, 64},
		{DEE, 0.92, 128}, {SP, 0.7, 6}, {EE, 0.7, 6},
	}
	for _, c := range configs {
		shape := NewShape(c.strategy, c.p, c.et)
		var tree *Tree
		switch c.strategy {
		case SP:
			tree = BuildSP(c.p, c.et)
		case EE:
			tree = BuildEE(c.p, c.et)
		case DEE:
			tree = BuildStatic(c.p, c.et)
		}
		maxd := shape.MaxDepth() + 2
		for trial := 0; trial < 400; trial++ {
			depth := 1 + rng.Intn(maxd)
			correct := make([]bool, depth)
			turns := make([]byte, depth)
			for i := range correct {
				correct[i] = rng.Intn(4) != 0 // 75% correct
				if correct[i] {
					turns[i] = byte(Pred)
				} else {
					turns[i] = byte(NotPred)
				}
			}
			want := tree.Contains(Node(turns))
			if got := shape.Covered(correct, depth); got != want {
				t.Fatalf("%v p=%v et=%d: Covered(%q) = %v, want %v",
					c.strategy, c.p, c.et, string(turns), got, want)
			}
			fc, ff := 0, -1
			for i, ok := range correct {
				if !ok {
					if fc == 0 {
						ff = i
					}
					fc++
				}
			}
			if got := shape.CoveredCounts(fc, ff, depth); got != want {
				t.Fatalf("%v p=%v et=%d: CoveredCounts(%d,%d,%d) = %v, want %v (pattern %q)",
					c.strategy, c.p, c.et, fc, ff, depth, got, want, string(turns))
			}
		}
	}
}

// TestCoveredDepthMatchesCounts: the coverage horizon must be exactly
// the prefix of window depths CoveredCounts accepts, for every
// placement of the first two unknown branches (a third or later one
// cannot uncover anything the second has not already cut).
func TestCoveredDepthMatchesCounts(t *testing.T) {
	for _, c := range []struct {
		strategy Strategy
		p        float64
		et       int
	}{
		{SP, 0.9, 1}, {SP, 0.9, 40}, {EE, 0.9, 1}, {EE, 0.9, 62},
		{DEE, 0.9, 8}, {DEE, 0.9, 34}, {DEE, 0.85, 64}, {DEE, 0.92, 256}, {DEE, 0.99, 16},
	} {
		shape := NewShape(c.strategy, c.p, c.et)
		maxd := shape.MaxDepth()
		for first := -1; first < maxd; first++ {
			for second := -1; second < maxd; second++ {
				if second >= 0 && (first < 0 || second <= first) {
					continue
				}
				h := shape.CoveredDepth(first, second)
				for j := 1; j <= maxd; j++ {
					fc := 0
					if first >= 0 && first < j {
						fc++
					}
					if second >= 0 && second < j {
						fc++
					}
					if got, want := j <= h, shape.CoveredCounts(fc, first, j); got != want {
						t.Fatalf("%v p=%v et=%d: CoveredDepth(%d,%d) = %d, but CoveredCounts(%d,%d,%d) = %v",
							c.strategy, c.p, c.et, first, second, h, fc, first, j, want)
					}
				}
			}
		}
	}
}

func TestEEHeight(t *testing.T) {
	cases := map[int]int{0: 0, 1: 0, 2: 1, 5: 1, 6: 2, 8: 2, 13: 2, 14: 3, 16: 3, 30: 4, 32: 4, 62: 5, 64: 5, 126: 6, 128: 6, 254: 7, 256: 7}
	for et, want := range cases {
		if got := EEHeight(et); got != want {
			t.Errorf("EEHeight(%d) = %d, want %d", et, got, want)
		}
	}
}

func TestShapeMaxDepth(t *testing.T) {
	s := NewShape(SP, 0.9, 40)
	if s.MaxDepth() != 40 {
		t.Errorf("SP MaxDepth = %d, want 40", s.MaxDepth())
	}
	s = NewShape(EE, 0.9, 40)
	if s.MaxDepth() != 4 {
		t.Errorf("EE MaxDepth = %d, want 4", s.MaxDepth())
	}
	s = NewShape(DEE, 0.9, 34)
	if s.MaxDepth() != 24 {
		t.Errorf("DEE MaxDepth = %d, want 24", s.MaxDepth())
	}
	s = NewShape(DEEPure, 0.7, 6)
	if s.MaxDepth() != 4 {
		t.Errorf("DEEPure MaxDepth = %d, want 4 (Figure 1 lDEE)", s.MaxDepth())
	}
}

func TestBuildGreedyPanicsOnBadP(t *testing.T) {
	for _, p := range []float64{0, 1, -0.3, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("BuildGreedy(%v, 4) did not panic", p)
				}
			}()
			BuildGreedy(p, 4)
		}()
	}
}

func TestTotalCPBounded(t *testing.T) {
	// Total cp of any selection is bounded by the tree height (each
	// level sums to at most 1).
	for _, p := range []float64{0.6, 0.9} {
		tr := BuildGreedy(p, 200)
		if tot := tr.TotalCP(); tot > float64(tr.Height())+1e-9 {
			t.Errorf("p=%v: total cp %v exceeds height %d", p, tot, tr.Height())
		}
	}
}

// TestBuildGreedyLocalUniform: with a uniform probability vector the
// per-level greedy tree equals the classic one.
func TestBuildGreedyLocalUniform(t *testing.T) {
	for _, p := range []float64{0.7, 0.9} {
		for _, et := range []int{6, 34, 100} {
			a := BuildGreedy(p, et)
			b := BuildGreedyLocal([]float64{p}, et)
			if len(a.Order) != len(b.Order) {
				t.Fatalf("p=%v et=%d: sizes differ", p, et)
			}
			for i := range a.Order {
				if a.Order[i] != b.Order[i] {
					t.Fatalf("p=%v et=%d: order %d differs: %q vs %q",
						p, et, i, string(a.Order[i]), string(b.Order[i]))
				}
			}
		}
	}
}

// TestBuildGreedyLocalHedgesWeakBranch: a low-accuracy branch at depth 2
// pulls side-path resources to that level before deeper mainline paths.
func TestBuildGreedyLocalHedgesWeakBranch(t *testing.T) {
	// Depths: 0,1 strong (0.95); 2 weak (0.55); rest strong.
	ps := []float64{0.95, 0.95, 0.55, 0.95, 0.95, 0.95}
	tr := BuildGreedyLocal(ps, 8)
	// The weak branch's not-predicted arc PPN has cp = .95*.95*.45 ≈ .41,
	// which outranks the depth-4 mainline path PPPP ≈ .95^3*.55... wait:
	// mainline through the weak branch: PPP = .95*.95*.55 ≈ .50;
	// PPPP ≈ .47. So PPN (.41) ranks right after PPPP.
	if !tr.Contains("PPN") {
		t.Fatalf("weak-branch side path missing from %v", tr.Order)
	}
	rankSide := tr.Rank("PPN")
	// A uniform 0.95 tree of the same size has NO side paths at all.
	uni := BuildGreedy(0.95, 8)
	for _, n := range uni.Order {
		if strings.ContainsRune(string(n), rune(NotPred)) {
			t.Fatalf("uniform 0.95 tree unexpectedly hedges: %q", string(n))
		}
	}
	if rankSide > 8 {
		t.Errorf("side path rank %d out of tree", rankSide)
	}
}

// TestBuildGreedyLocalClamps: degenerate probabilities are clamped, not
// propagated.
func TestBuildGreedyLocalClamps(t *testing.T) {
	tr := BuildGreedyLocal([]float64{0.0, 1.0, 0.3}, 6)
	if tr.Size() != 6 {
		t.Errorf("tree size %d", tr.Size())
	}
	defer func() {
		if recover() == nil {
			t.Error("empty probability vector did not panic")
		}
	}()
	BuildGreedyLocal(nil, 4)
}

func TestRenderAndSummary(t *testing.T) {
	tr := BuildGreedy(0.7, 6)
	out := tr.Render()
	for _, want := range []string{"root", "pred", "NOT-pred", "assigned #4", "cp=0.3000"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	sum := tr.Summary()
	for _, want := range []string{"ET=6", "height=4", "mainline=4", "sidepaths=2"} {
		if !strings.Contains(sum, want) {
			t.Errorf("summary missing %q: %s", want, sum)
		}
	}
}

// TestAllocateSaturating exercises Corollary 1: with per-path saturation
// the greedy rule fills the most likely path, then spills to the next.
func TestAllocateSaturating(t *testing.T) {
	// saturation 1 reduces to BuildGreedy's selection.
	tr := BuildGreedy(0.7, 6)
	allocs := AllocateSaturating(0.7, 6, 1)
	if len(allocs) != 6 {
		t.Fatalf("got %d allocations", len(allocs))
	}
	for i, a := range allocs {
		if a.Path != tr.Order[i] || a.Units != 1 {
			t.Errorf("alloc %d = %+v, want %q x1", i, a, string(tr.Order[i]))
		}
	}
	// With saturation 4, the first path absorbs 4 units before the
	// second gets any (Theorem 1), and a partial tail is allowed.
	allocs = AllocateSaturating(0.7, 10, 4)
	if allocs[0].Path != "P" || allocs[0].Units != 4 {
		t.Errorf("first alloc %+v", allocs[0])
	}
	if allocs[1].Path != "PP" || allocs[1].Units != 4 {
		t.Errorf("second alloc %+v", allocs[1])
	}
	if allocs[2].Units != 2 {
		t.Errorf("tail alloc %+v", allocs[2])
	}
	sum := 0
	for _, a := range allocs {
		sum += a.Units
	}
	if sum != 10 {
		t.Errorf("allocated %d units, want 10", sum)
	}
}

// TestAllocateSaturatingOptimal: no random saturating allocation over
// the same candidate tree beats the greedy one's expected work.
func TestAllocateSaturatingOptimal(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		p := 0.55 + 0.4*rng.Float64()
		et := 4 + rng.Intn(24)
		sat := 1 + rng.Intn(5)
		best := ExpectedWork(p, AllocateSaturating(p, et, sat))

		// Random feasible allocation: random downward-closed path set,
		// each path up to sat units.
		frontier := []Node{"P", "N"}
		remaining := et
		total := 0.0
		for remaining > 0 && len(frontier) > 0 {
			j := rng.Intn(len(frontier))
			n := frontier[j]
			frontier = append(frontier[:j], frontier[j+1:]...)
			units := 1 + rng.Intn(sat)
			if units > remaining {
				units = remaining
			}
			remaining -= units
			total += float64(units) * n.CP(p)
			pr, np := n.Children()
			frontier = append(frontier, pr, np)
		}
		if total > best+1e-9 {
			t.Fatalf("p=%.3f et=%d sat=%d: random %.4f beats greedy %.4f", p, et, sat, total, best)
		}
	}
}

func TestAllocateSaturatingPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic on zero saturation")
		}
	}()
	AllocateSaturating(0.8, 4, 0)
}

// TestCoveredBitsMatchesCovered: the bitset coverage query agrees with
// the bool-slice one for every strategy, depth and correctness pattern
// the simulator can present.
func TestCoveredBitsMatchesCovered(t *testing.T) {
	for _, p := range []float64{0.7, 0.9053, 0.95} {
		for _, et := range []int{1, 4, 8, 34, 100} {
			for _, strat := range []Strategy{SP, EE, DEE, DEEPure} {
				s := NewShape(strat, p, et)
				maxJ := s.MaxDepth() + 2
				if maxJ > 12 {
					maxJ = 12 // exhaustive patterns up to 2^12
				}
				for j := 0; j <= maxJ; j++ {
					for pat := 0; pat < 1<<j; pat++ {
						correct := make([]bool, j)
						bits := NewBitVec(maxJ)
						for i := 0; i < j; i++ {
							if pat&(1<<i) != 0 {
								correct[i] = true
								bits.Set(i)
							}
						}
						want := s.Covered(correct, j)
						if got := s.CoveredBits(bits, j); got != want {
							t.Fatalf("%v p=%v et=%d j=%d pat=%b: CoveredBits=%v Covered=%v",
								strat, p, et, j, pat, got, want)
						}
					}
				}
			}
		}
	}
}

// TestContainsBitsMatchesContains: trie membership agrees with the
// rank-map membership for greedy, static, local-probability and EE trees.
func TestContainsBitsMatchesContains(t *testing.T) {
	trees := []*Tree{
		BuildGreedy(0.9, 40),
		BuildStatic(0.85, 34),
		BuildSP(0.9, 10),
		BuildEE(0.7, 30),
		BuildGreedyLocal([]float64{0.9, 0.6, 0.8, 0.95}, 25),
	}
	for ti, tr := range trees {
		maxJ := tr.Height() + 2
		if maxJ > 14 {
			maxJ = 14
		}
		for j := 0; j <= maxJ; j++ {
			for pat := 0; pat < 1<<j; pat++ {
				turns := make([]byte, j)
				bits := NewBitVec(maxJ)
				for i := 0; i < j; i++ {
					if pat&(1<<i) != 0 {
						turns[i] = byte(Pred)
						bits.Set(i)
					} else {
						turns[i] = byte(NotPred)
					}
				}
				want := tr.Contains(Node(turns))
				if got := tr.ContainsBits(bits, j); got != want {
					t.Fatalf("tree %d j=%d pat=%b: ContainsBits=%v Contains=%v", ti, j, pat, got, want)
				}
			}
		}
	}
}

// TestBitVecOps: basic set/clear/reset/copy semantics across word
// boundaries.
func TestBitVecOps(t *testing.T) {
	v := NewBitVec(130)
	if len(v) != 3 {
		t.Fatalf("capacity words = %d, want 3", len(v))
	}
	for _, i := range []int{0, 63, 64, 127, 129} {
		if v.Get(i) {
			t.Fatalf("bit %d set in fresh vector", i)
		}
		v.Set(i)
		if !v.Get(i) {
			t.Fatalf("bit %d not set after Set", i)
		}
	}
	w := NewBitVec(130)
	w.CopyFrom(v)
	v.Clear(64)
	if v.Get(64) || !w.Get(64) {
		t.Fatal("Clear leaked across CopyFrom")
	}
	w.Reset()
	for _, i := range []int{0, 63, 64, 127, 129} {
		if w.Get(i) {
			t.Fatalf("bit %d survived Reset", i)
		}
	}
}
