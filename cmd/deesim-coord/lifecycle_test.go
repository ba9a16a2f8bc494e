package main

import (
	"testing"

	"deesim/internal/obs/obstest"
	"deesim/internal/runx"
)

// TestLifecycle runs the daemon in-process through its serve path: an
// -fsck of a clean state directory exits 0 and a listen failure exits
// with the unavailable code, each writing -metrics-out and logging only
// JSON records.
func TestLifecycle(t *testing.T) {
	obstest.Lifecycle(t, realMain, []obstest.Case{
		{Name: "fsck", Args: []string{"-fsck", "-state", t.TempDir()}, Code: runx.ExitOK},
		{Name: "listen fails", Args: []string{"-state", t.TempDir(), "-addr", "127.0.0.1:-1"}, Code: runx.ExitUnavailable},
	})
}
