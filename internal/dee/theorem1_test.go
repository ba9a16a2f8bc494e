package dee

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// bestSelection enumerates every downward-closed selection of et nodes
// below the root and returns how many there are and the largest summed
// cp. A node joins the ordered frontier when its parent is selected;
// selecting frontier[i] rules out frontier[from:i] for the rest of that
// branch, so every selection is generated exactly once.
func bestSelection(et int, cp func(Node) float64) (count int, best float64) {
	best = math.Inf(-1)
	var grow func(frontier []Node, from, left int, sum float64)
	grow = func(frontier []Node, from, left int, sum float64) {
		if left == 0 {
			count++
			best = max(best, sum)
			return
		}
		for i := from; i < len(frontier); i++ {
			pred, npred := frontier[i].Children()
			grow(append(frontier[:len(frontier):len(frontier)], pred, npred), i+1, left-1, sum+cp(frontier[i]))
		}
	}
	pred, npred := Node("").Children()
	grow([]Node{pred, npred}, 0, et, 0)
	return count, best
}

// catalan returns the n-th Catalan number.
func catalan(n int) int {
	c := 1
	for k := 0; k < n; k++ {
		c = c * 2 * (2*k + 1) / (k + 2)
	}
	return c
}

// theorem1MaxET is the largest ET TestTheorem1Exhaustive enumerates:
// Catalan(11) = 58,786 selections at ET 10, 8 under -short.
func theorem1MaxET() int {
	if testing.Short() {
		return 8
	}
	return 10
}

// sameTotal reports whether two sums of the same cps, added in
// different orders, agree up to rounding.
func sameTotal(a, b float64) bool { return math.Abs(a-b) <= 1e-12*max(1, math.Abs(b)) }

// TestTheorem1Exhaustive checks Theorem 1 (and its one-unit-per-path
// case, Corollary 1) against every alternative rather than a sample:
// for each ET up to theorem1MaxET it enumerates all Catalan(ET+1)
// downward-closed selections of ET paths, and the greedy tree's summed
// cumulative probability must equal the best of them — under uniform
// accuracy (BuildGreedy) and under seeded per-depth accuracies
// (BuildGreedyLocal).
func TestTheorem1Exhaustive(t *testing.T) {
	for et := 0; et <= theorem1MaxET(); et++ {
		for _, p := range []float64{0.51, 0.6, 0.7, 0.85, 0.95, 0.99} {
			count, best := bestSelection(et, func(n Node) float64 { return n.CP(p) })
			if count != catalan(et+1) {
				t.Fatalf("ET %d: enumerated %d selections, want Catalan(%d) = %d", et, count, et+1, catalan(et+1))
			}
			if g := BuildGreedy(p, et); g.Size() != et || !sameTotal(g.TotalCP(), best) {
				t.Errorf("p=%v ET %d: greedy tree of %d paths has Ptot %v, the best selection %v", p, et, g.Size(), g.TotalCP(), best)
			}
		}
		rng := rand.New(rand.NewSource(int64(et) + 1))
		for trial := 0; trial < 4; trial++ {
			ps := make([]float64, et+1)
			for d := range ps {
				ps[d] = 0.55 + 0.44*rng.Float64()
			}
			localCP := func(n Node) float64 {
				cp := 1.0
				for d := 0; d < len(n); d++ {
					if Turn(n[d]) == Pred {
						cp *= ps[d]
					} else {
						cp *= 1 - ps[d]
					}
				}
				return cp
			}
			_, best := bestSelection(et, localCP)
			g := BuildGreedyLocal(ps, et)
			total := 0.0
			for _, n := range g.Order {
				total += localCP(n)
			}
			if g.Size() != et || !sameTotal(total, best) {
				t.Errorf("ps=%s ET %d: local greedy tree of %d paths has Ptot %v, the best selection %v", fmt.Sprint(ps), et, g.Size(), total, best)
			}
		}
	}
}
