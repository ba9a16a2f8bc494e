package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"deesim/internal/obs"
	"deesim/internal/obs/obstest"
	"deesim/internal/runx"
)

// run invokes the CLI in-process and returns (exit code, stdout, stderr).
func run(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errb bytes.Buffer
	code := realMain(args, &out, &errb)
	return code, out.String(), errb.String()
}

// fastArgs keeps study sweeps to well under a second.
func fastArgs(extra ...string) []string {
	return append([]string{
		"-bench", "xlisp", "-max", "3000", "-et", "16,64",
	}, extra...)
}

// TestJournaledStudiesMatchPlain: a journaled run must print the
// studies byte-identically to a run without a journal (both emit in
// canonical study order), and a resume of the finished journal must
// replay the same bytes without re-running anything.
func TestJournaledStudiesMatchPlain(t *testing.T) {
	args := fastArgs("-study", "penalty")
	code, plain, stderr := run(t, args...)
	if code != 0 {
		t.Fatalf("plain run exited %d: %s", code, stderr)
	}
	if !strings.Contains(plain, "misprediction restart penalty") {
		t.Fatalf("penalty study missing from output:\n%s", plain)
	}

	journal := filepath.Join(t.TempDir(), "run.journal")
	code, journaled, stderr := run(t, fastArgs("-study", "penalty", "-journal", journal)...)
	if code != 0 {
		t.Fatalf("journaled run exited %d: %s", code, stderr)
	}
	if journaled != plain {
		t.Errorf("journaled output differs from plain:\n--- journaled ---\n%s\n--- plain ---\n%s", journaled, plain)
	}

	// Resume of a complete journal: pure replay, identical bytes.
	code, resumed, stderr := run(t, fastArgs("-study", "penalty", "-resume", journal)...)
	if code != 0 {
		t.Fatalf("resume exited %d: %s", code, stderr)
	}
	if !strings.Contains(stderr, "resuming") {
		t.Errorf("resume did not report replay progress: %s", stderr)
	}
	if resumed != plain {
		t.Errorf("replayed output differs from plain:\n--- replayed ---\n%s\n--- plain ---\n%s", resumed, plain)
	}
}

// TestResumeAfterTornJournal: tear the journal tail (simulated crash
// mid-record) from a two-study run and resume; the combined output must
// match an uninterrupted run of both studies.
func TestResumeAfterTornJournal(t *testing.T) {
	code, want, stderr := run(t, fastArgs("-study", "all")...)
	if code != 0 {
		t.Fatalf("reference run exited %d: %s", code, stderr)
	}

	journal := filepath.Join(t.TempDir(), "run.journal")
	code, _, stderr = run(t, fastArgs("-study", "all", "-journal", journal)...)
	if code != 0 {
		t.Fatalf("journaled run exited %d: %s", code, stderr)
	}
	data, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	// Tear deep enough to lose at least the final study's record.
	if err := os.WriteFile(journal, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	code, resumed, stderr := run(t, fastArgs("-study", "all", "-resume", journal)...)
	if code != 0 {
		t.Fatalf("resume exited %d: %s", code, stderr)
	}
	if resumed != want {
		t.Errorf("resumed output differs from uninterrupted run:\n--- resumed ---\n%s\n--- want ---\n%s", resumed, want)
	}
}

// TestResumeRejectsChangedRun: a journal recorded under different study
// settings must be refused rather than silently merged.
func TestResumeRejectsChangedRun(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "run.journal")
	code, _, stderr := run(t, fastArgs("-study", "penalty", "-journal", journal)...)
	if code != 0 {
		t.Fatalf("journaled run exited %d: %s", code, stderr)
	}
	code, _, stderr = run(t, "-bench", "xlisp", "-max", "3000", "-et", "16,256",
		"-study", "penalty", "-resume", journal)
	if code == 0 {
		t.Error("resume under changed -et succeeded")
	} else if !strings.Contains(stderr, "journal") {
		t.Errorf("unhelpful refusal: %s", stderr)
	}
}

func TestJournalAndResumeMutuallyExclusive(t *testing.T) {
	code, _, stderr := run(t, fastArgs("-journal", "a", "-resume", "b")...)
	if code == 0 || !strings.Contains(stderr, "mutually exclusive") {
		t.Errorf("exit %d, stderr %s", code, stderr)
	}
}

// TestAccuracyStudySkipsBenchTrace: the accuracy study runs its own
// synthetic programs, so it neither builds nor records the -bench
// workload (an unknown one is not even looked up), its header describes
// the synthetic inputs, and -bench and -max do not change its output.
func TestAccuracyStudySkipsBenchTrace(t *testing.T) {
	code, out, stderr := run(t, "-study", "accuracy", "-bench", "no-such-workload", "-max", "1", "-et", "8")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	if !strings.HasPrefix(out, "synthetic workload: 4000 iterations of 4 branches") || strings.Contains(out, "dynamic instructions") {
		t.Errorf("header does not describe the synthetic inputs:\n%s", out)
	}
	if !strings.Contains(out, "(ET=8)") {
		t.Errorf("table does not name the ET it ran at:\n%s", out)
	}
	if code, other, stderr := run(t, "-study", "accuracy", "-bench", "xlisp", "-max", "3000", "-et", "8"); code != 0 || other != out {
		t.Errorf("-bench xlisp changed the accuracy study (exit %d, %s):\n%s\nwant\n%s", code, stderr, other, out)
	}
}

// TestAccuracyStudyMemoKeyIgnoresBench: the accuracy study's text does
// not depend on -bench or -max, so a run under -study all caches it
// under the one key a lone -study accuracy run with any -bench and
// -max looks up.
func TestAccuracyStudyMemoKeyIgnoresBench(t *testing.T) {
	dir := t.TempDir()
	hits := obs.GetOrCreateCounter("deesim_memo_hits_total")
	misses := obs.GetOrCreateCounter("deesim_memo_misses_total")
	code, all, stderr := run(t, fastArgs("-study", "all", "-memo-dir", dir)...)
	if code != 0 {
		t.Fatalf("-study all exited %d: %s", code, stderr)
	}
	h0, m0 := hits.Value(), misses.Value()
	code, acc, stderr := run(t, "-study", "accuracy", "-bench", "compress", "-max", "1", "-et", "16,64", "-memo-dir", dir)
	if code != 0 {
		t.Fatalf("-study accuracy exited %d: %s", code, stderr)
	}
	if dh, dm := hits.Value()-h0, misses.Value()-m0; dh != 1 || dm != 0 {
		t.Errorf("accuracy study after -study all: %d memo hits, %d misses; want 1, 0", dh, dm)
	}
	if _, table, ok := strings.Cut(acc, "\n\n"); !ok || !strings.HasSuffix(all, table) {
		t.Errorf("cached accuracy table differs from the -study all one:\n%s", acc)
	}
}

func TestUnknownStudyRejected(t *testing.T) {
	code, _, stderr := run(t, fastArgs("-study", "warp")...)
	if code == 0 || !strings.Contains(stderr, "unknown study") {
		t.Errorf("exit %d, stderr %s", code, stderr)
	}
}

// TestLifecycle: a run past its -timeout exits with the deadline code,
// and on every path the -metrics-out snapshot is written and stderr is
// JSON log records only.
func TestLifecycle(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "run.journal")
	obstest.Lifecycle(t, realMain, []obstest.Case{
		{Name: "journaled", Args: fastArgs("-study", "penalty", "-journal", journal), Code: runx.ExitOK},
		{Name: "resume", Args: fastArgs("-study", "penalty", "-resume", journal), Code: runx.ExitOK},
		{Name: "deadline", Args: []string{"-study", "penalty", "-max", "300000", "-timeout", "1ms"}, Code: runx.ExitDeadline},
		{Name: "unknown study", Args: fastArgs("-study", "nope"), Code: runx.ExitError},
	})
}

// TestResultsRegenerate regenerates every results/ file ablate writes and
// compares it byte for byte (not in short mode).
func TestResultsRegenerate(t *testing.T) { obstest.Results(t, "ablate", realMain) }
