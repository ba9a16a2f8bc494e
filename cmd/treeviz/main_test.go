package main

import (
	"testing"

	"deesim/internal/obs/obstest"
	"deesim/internal/runx"
)

func TestLifecycle(t *testing.T) {
	obstest.Lifecycle(t, realMain, []obstest.Case{
		{Name: "figure 1", Args: []string{"-figure", "1"}, Code: runx.ExitOK},
		// A 65536-path greedy tree takes far longer than 1ms to build.
		{Name: "deadline", Args: []string{"-et", "65536", "-timeout", "1ms"}, Code: runx.ExitDeadline},
		{Name: "unknown strategy", Args: []string{"-strategy", "x"}, Code: runx.ExitInvalidInput},
	})
}

// TestResultsRegenerate regenerates every results/ file treeviz writes and
// compares it byte for byte (not in short mode).
func TestResultsRegenerate(t *testing.T) { obstest.Results(t, "treeviz", realMain) }
