package main

import (
	"testing"

	"deesim/internal/obs/obstest"
	"deesim/internal/runx"
)

func TestLifecycle(t *testing.T) {
	obstest.Lifecycle(t, realMain, []obstest.Case{
		{Name: "ok", Args: []string{"-bench", "xlisp", "-max", "3000", "-predictors"}, Code: runx.ExitOK},
		{Name: "deadline", Args: []string{"-timeout", "1ms"}, Code: runx.ExitDeadline},
		{Name: "bad IQ size", Args: []string{"-iq", "x"}, Code: runx.ExitError},
	})
}

// TestResultsRegenerate regenerates every results/ file tracegen writes and
// compares it byte for byte (not in short mode).
func TestResultsRegenerate(t *testing.T) { obstest.Results(t, "tracegen", realMain) }
