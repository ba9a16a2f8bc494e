package main

import (
	"testing"

	"deesim/internal/obs/obstest"
	"deesim/internal/runx"
)

func TestLifecycle(t *testing.T) {
	obstest.Lifecycle(t, realMain, []obstest.Case{
		{Name: "ok", Args: []string{"-bench", "xlisp", "-max", "3000"}, Code: runx.ExitOK},
		{Name: "cost", Args: []string{"-cost"}, Code: runx.ExitOK},
		{Name: "deadline", Args: []string{"-bench", "xlisp", "-timeout", "1ms"}, Code: runx.ExitDeadline},
		{Name: "unknown workload", Args: []string{"-bench", "gcc"}, Code: runx.ExitError},
	})
}

// TestResultsRegenerate regenerates every results/ file levosim writes and
// compares it byte for byte (not in short mode).
func TestResultsRegenerate(t *testing.T) { obstest.Results(t, "levosim", realMain) }
