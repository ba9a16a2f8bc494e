package predictor

import (
	"math/rand"
	"slices"
	"testing"

	"deesim/internal/bench"
	"deesim/internal/trace"
)

// mapTwoBit is the map-keyed reference for TwoBit: one counter per pc,
// created on first update, weakly taken until then. TwoBit must agree
// with it on every branch stream.
type mapTwoBit struct{ counters map[int32]uint8 }

func (p *mapTwoBit) Name() string { return "2bit-map" }

func (p *mapTwoBit) counter(pc int32) uint8 {
	c, ok := p.counters[pc]
	if !ok {
		return 2
	}
	return c
}

func (p *mapTwoBit) Predict(pc int32) bool { return p.counter(pc) >= 2 }

func (p *mapTwoBit) Update(pc int32, taken bool) {
	c := p.counter(pc)
	if taken && c < 3 {
		c++
	} else if !taken && c > 0 {
		c--
	}
	p.counters[pc] = c
}

func newMapTwoBit() *mapTwoBit { return &mapTwoBit{counters: make(map[int32]uint8)} }

// checkTwoBitAgainstOracle fails unless TwoBit and mapTwoBit give the
// same accuracy and per-branch correctness vector on tr.
func checkTwoBitAgainstOracle(t *testing.T, label string, tr *trace.Trace) {
	t.Helper()
	acc, correct := Accuracy(tr, NewTwoBit())
	wantAcc, wantCorrect := Accuracy(tr, newMapTwoBit())
	if acc != wantAcc || !slices.Equal(correct, wantCorrect) {
		t.Fatalf("%s: accuracy %v over %d branches, map oracle %v over %d", label, acc, len(correct), wantAcc, len(wantCorrect))
	}
}

// TestTwoBitMatchesMapOnBenchInputs replays every benchmark input at
// full length (short mode caps the traces).
func TestTwoBitMatchesMapOnBenchInputs(t *testing.T) {
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
			checkTwoBitAgainstOracle(t, w.Name+"/"+in.Name, tr)
		}
	}
}

func TestTwoBitMatchesMapOnSynthetic(t *testing.T) {
	for _, cfg := range []bench.SyntheticConfig{
		bench.DefaultSynthetic(),
		{Iterations: 300, BranchesPerIter: 8, Bias: 50, Seed: 7, Work: 0},
		{Iterations: 1000, BranchesPerIter: 1, Bias: 99, Seed: 0xdead, Work: 6},
	} {
		prog, err := bench.BuildSynthetic(cfg)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := trace.Record(prog, 200_000)
		if err != nil {
			t.Fatal(err)
		}
		checkTwoBitAgainstOracle(t, "synthetic", tr)
	}
}

// TestTwoBitMatchesMapOnRandomPCs drives both with random pcs, negative
// ones and pcs far past the grown table included, predicting before
// every update and probing pcs never updated.
func TestTwoBitMatchesMapOnRandomPCs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	got, want := NewTwoBit(), newMapTwoBit()
	for i := 0; i < 100_000; i++ {
		var pc int32
		switch rng.Intn(4) {
		case 0:
			pc = -int32(rng.Intn(8)) - 1
		case 1:
			pc = int32(rng.Intn(1 << 16))
		default:
			pc = int32(rng.Intn(32))
		}
		if g, w := got.Predict(pc), want.Predict(pc); g != w {
			t.Fatalf("step %d: Predict(%d) = %v, map oracle %v", i, pc, g, w)
		}
		taken := rng.Intn(3) > 0
		got.Update(pc, taken)
		want.Update(pc, taken)
		if probe := int32(rng.Intn(1<<17)) - 1<<16; got.Predict(probe) != want.Predict(probe) {
			t.Fatalf("step %d: Predict(%d) differs from the map oracle", i, probe)
		}
	}
}
