package ilpsim

import (
	"slices"
	"testing"

	"deesim/internal/bench"
	"deesim/internal/cfg"
	"deesim/internal/predictor"
	"deesim/internal/trace"
)

// computeJoinsOracle is the map-keyed reference for the joins the build
// resolves forward (Sim.pathJoin, one per branch path): the occurrence
// list of every static instruction that is some branch's ipdom, walked
// by a per-ipdom cursor. The build must agree with it on every trace.
func computeJoinsOracle(tr *trace.Trace, g *cfg.Graph) []int32 {
	wanted := make(map[int32][]int32)
	for _, din := range tr.Ins {
		if !din.IsBranch() {
			continue
		}
		if ip := g.IPdom(din.Static); ip >= 0 {
			if _, ok := wanted[ip]; !ok {
				wanted[ip] = nil
			}
		}
	}
	for i, din := range tr.Ins {
		if occ, ok := wanted[din.Static]; ok {
			wanted[din.Static] = append(occ, int32(i))
		}
	}
	var joins []int32
	cursor := make(map[int32]int)
	for i, din := range tr.Ins {
		if !din.IsBranch() {
			continue
		}
		ip := g.IPdom(din.Static)
		if ip < 0 {
			joins = append(joins, -1)
			continue
		}
		occ := wanted[ip]
		c := cursor[ip]
		for c < len(occ) && occ[c] <= int32(i) {
			c++
		}
		cursor[ip] = c
		if c < len(occ) {
			joins = append(joins, occ[c])
		} else {
			joins = append(joins, -1)
		}
	}
	return joins
}

func checkJoinsAgainstOracle(t *testing.T, label string, tr *trace.Trace) {
	t.Helper()
	s := MustNew(tr, predictor.NewTwoBit(), DefaultOptions())
	got := s.pathJoin[:s.branches]
	want := computeJoinsOracle(tr, cfg.Build(tr.Prog))
	if !slices.Equal(got, want) {
		t.Fatalf("%s: the prepared joins differ from the oracle (%d vs %d joins)", label, len(got), len(want))
	}
}

// TestComputeJoinsMatchesOracle covers every benchmark input at full
// length (short mode caps the traces) and a spread of synthetic
// workloads.
func TestComputeJoinsMatchesOracle(t *testing.T) {
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
			tr, err := trace.Record(prog, limit)
			if err != nil {
				t.Fatal(err)
			}
			checkJoinsAgainstOracle(t, w.Name+"/"+in.Name, tr)
		}
	}
	for _, sc := range []bench.SyntheticConfig{
		bench.DefaultSynthetic(),
		{Iterations: 300, BranchesPerIter: 8, Bias: 50, Seed: 7, Work: 0},
		{Iterations: 1000, BranchesPerIter: 1, Bias: 99, Seed: 0xdead, Work: 6},
	} {
		prog, err := bench.BuildSynthetic(sc)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := trace.Record(prog, 200_000)
		if err != nil {
			t.Fatal(err)
		}
		checkJoinsAgainstOracle(t, "synthetic", tr)
	}
}
