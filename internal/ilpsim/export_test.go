package ilpsim

import (
	"context"

	"deesim/internal/trace"
)

// LegacyRunner is a perf.Legacy over the package's legacy loop: it binds
// runLegacy to s and to the data dependences of tr, the trace s was
// prepared from. The core perf tests (core_test.go) hand it to
// perf.RunCore.
func LegacyRunner(tr *trace.Trace, s *Sim) func(context.Context, Model, int) (Result, error) {
	dd := legacyDeps(tr, s)
	return func(ctx context.Context, m Model, et int) (Result, error) {
		return s.runLegacy(ctx, dd, m, et)
	}
}
