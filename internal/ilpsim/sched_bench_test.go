package ilpsim

import (
	"context"
	"fmt"
	"testing"

	"deesim/internal/bench"
	"deesim/internal/predictor"
	"deesim/internal/trace"
)

// benchCells spans the scheduler shapes that dominate the perf suite:
// single-path SP, all-paths EE, and the coverage-driven DEE-CD-MF,
// plus the deep SP windows where the coverage horizon (SP) and control
// parking (SP-CD) keep the per-cycle cost from growing with ET.
var benchCells = []struct {
	model Model
	et    int
}{
	{ModelSP, 8},
	{ModelEE, 8},
	{ModelDEECDMF, 8},
	{ModelDEECDMF, 64},
	{ModelSP, 256},
	{ModelSPCD, 256},
}

func benchSim(b *testing.B, workload string) (*Sim, *trace.Trace) {
	b.Helper()
	w, err := bench.ByName(workload)
	if err != nil {
		b.Fatal(err)
	}
	prog, err := w.Inputs[0].Build(1)
	if err != nil {
		b.Fatal(err)
	}
	tr, err := trace.Record(prog, 60_000)
	if err != nil {
		b.Fatal(err)
	}
	s, err := NewContext(context.Background(), tr, predictor.NewTwoBit(), DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	return s, tr
}

// BenchmarkEventScheduler times the event-driven scheduler on xlisp
// (the longest per-instruction workload in the suite).
func BenchmarkEventScheduler(b *testing.B) {
	s, _ := benchSim(b, "xlisp")
	for _, c := range benchCells {
		b.Run(fmt.Sprintf("%v/ET%d", c.model, c.et), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := s.runEvent(context.Background(), c.model, c.et); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLegacyScheduler times the retired scan-every-cycle loop on
// the same cells, for side-by-side speedup_vs_legacy measurements.
func BenchmarkLegacyScheduler(b *testing.B) {
	s, tr := benchSim(b, "xlisp")
	dd := legacyDeps(tr, s)
	for _, c := range benchCells {
		b.Run(fmt.Sprintf("%v/ET%d", c.model, c.et), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := s.runLegacy(context.Background(), dd, c.model, c.et); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
