package fsck

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"deesim/internal/coord"
	"deesim/internal/durable"
	"deesim/internal/faultinject"
	"deesim/internal/runx"
	"deesim/internal/superv"
)

// writeTree builds a state directory exercising every verdict class:
// a superv journal, a coord journal, a digest-verified artifact, a
// legacy artifact, a quarantined file, a stale temp, and an orphan
// sidecar.
func writeTree(t *testing.T) string {
	t.Helper()
	root := t.TempDir()
	jobDir := filepath.Join(root, "jobs", "j000001")
	if err := os.MkdirAll(jobDir, 0o755); err != nil {
		t.Fatal(err)
	}

	j, err := superv.Create(filepath.Join(jobDir, "run.journal"), "testtool", nil)
	if err != nil {
		t.Fatal(err)
	}
	recs := []superv.Record{
		{Kind: superv.KindStart, Key: "a", Attempt: 1},
		{Kind: superv.KindDone, Key: "a", Attempt: 1, Result: json.RawMessage(`{"v":1}`)},
	}
	for _, r := range recs {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	cj, err := coord.Create(filepath.Join(jobDir, "coord.journal"), "deesim-coord", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := cj.Append(coord.Record{Kind: coord.KindAssign, Key: "a", Worker: "w1", Lease: "l1", Attempt: 1}); err != nil {
		t.Fatal(err)
	}
	if err := cj.Close(); err != nil {
		t.Fatal(err)
	}

	if err := durable.WriteFileAtomic(nil, filepath.Join(jobDir, "result.json"), []byte(`{"ok":true}`)); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(jobDir, "legacy.json"), []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(jobDir, "result.json.tmp-7"), []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(jobDir, "gone.json.sha256"), []byte(strings.Repeat("0", 64)+"  gone.json\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	qdir := filepath.Join(jobDir, durable.QuarantineDir)
	if err := os.MkdirAll(qdir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(qdir, "old-result.json"), []byte("poison"), 0o644); err != nil {
		t.Fatal(err)
	}
	return root
}

func find(r *Report, base string) (Verdict, bool) {
	for _, v := range r.Verdicts {
		if filepath.Base(v.Path) == base {
			return v, true
		}
	}
	return Verdict{}, false
}

func TestDirVerdicts(t *testing.T) {
	root := writeTree(t)
	r, err := Dir(nil, root)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{
		"run.journal":       StatusOK,
		"coord.journal":     StatusOK,
		"result.json":       StatusOK,
		"legacy.json":       StatusUnverified,
		"result.json.tmp-7": StatusStale,
		"gone.json.sha256":  StatusOrphan,
		"old-result.json":   StatusQuarantined,
	}
	for suffix, status := range want {
		v, ok := find(r, suffix)
		if !ok {
			t.Errorf("no verdict for %s", suffix)
			continue
		}
		if v.Status != status {
			t.Errorf("%s: status %s (%s), want %s", suffix, v.Status, v.Detail, status)
		}
	}
	// Quarantined artifacts keep the report's exit code non-zero: the
	// operator must see them even after the daemon healed.
	if err := r.Err(); !runx.IsKind(err, runx.KindCorrupt) {
		t.Errorf("Err() = %v, want KindCorrupt (quarantine present)", err)
	}
	var sb strings.Builder
	r.Render(&sb)
	out := sb.String()
	if !strings.Contains(out, "fsck:") || !strings.Contains(out, "quarantined") {
		t.Errorf("render missing summary: %s", out)
	}
	// Worst first: the quarantined line precedes every ok line.
	if q, ok := strings.CutSuffix(out, "\n"); ok {
		lines := strings.Split(q, "\n")
		if !strings.HasPrefix(lines[0], StatusQuarantined) {
			t.Errorf("first rendered line %q, want the quarantined artifact", lines[0])
		}
	}
}

func TestDirFlagsCorruption(t *testing.T) {
	root := writeTree(t)
	ffs := faultinject.NewFaultyFS(nil, 21)
	jobDir := filepath.Join(root, "jobs", "j000001")
	if _, err := ffs.RotFile(filepath.Join(jobDir, "result.json")); err != nil {
		t.Fatal(err)
	}
	// Rot a mid-file byte of the journal (the header line) so the damage
	// cannot be excused as a torn tail.
	data, err := os.ReadFile(filepath.Join(jobDir, "run.journal"))
	if err != nil {
		t.Fatal(err)
	}
	data[2] ^= 0x40
	if err := os.WriteFile(filepath.Join(jobDir, "run.journal"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := Dir(nil, root)
	if err != nil {
		t.Fatal(err)
	}
	for _, suffix := range []string{"result.json", "run.journal"} {
		if v, ok := find(r, suffix); !ok || v.Status != StatusCorrupt {
			t.Errorf("%s: %+v, want corrupt", suffix, v)
		}
	}
	if err := r.Err(); !runx.IsKind(err, runx.KindCorrupt) {
		t.Errorf("Err() = %v, want KindCorrupt", err)
	}
	if got := runx.ExitCode(r.Err()); got != runx.ExitCorrupt {
		t.Errorf("exit code %d, want ExitCorrupt (%d)", got, runx.ExitCorrupt)
	}
}

func TestJournalTornIsNotCorrupt(t *testing.T) {
	root := writeTree(t)
	path := filepath.Join(root, "jobs", "j000001", "run.journal")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-4], 0o644); err != nil {
		t.Fatal(err)
	}
	v := Journal(nil, path)
	if v.Status != StatusTorn {
		t.Errorf("torn journal verdict %+v, want torn", v)
	}
	r := JournalReport(nil, path)
	if err := r.Err(); err != nil {
		t.Errorf("torn journal must not fail fsck: %v", err)
	}
}

// TestJournalDecoderFromHeader: the header's tool, not the file name,
// picks the record decoder, so a coordinator journal under any name
// replays as one — its worker-stamped done records would fail a superv
// replay's sums.
func TestJournalDecoderFromHeader(t *testing.T) {
	path := filepath.Join(t.TempDir(), "renamed.journal")
	cj, err := coord.Create(path, coord.Tool, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range []coord.Record{
		{Kind: coord.KindAssign, Key: "a", Worker: "w1", Lease: "l1", Attempt: 1},
		{Kind: coord.KindDone, Key: "a", Worker: "w1", Lease: "l1", Attempt: 1, Result: json.RawMessage(`{"v":1}`)},
	} {
		if err := cj.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := cj.Close(); err != nil {
		t.Fatal(err)
	}
	if v := Journal(nil, path); v.Status != StatusOK || v.Detail != "1 done record(s)" {
		t.Errorf("coord journal under a non-standard name: %+v, want ok with 1 done record", v)
	}
}

func TestCleanTreeIsClean(t *testing.T) {
	root := t.TempDir()
	if err := durable.WriteFileAtomic(nil, filepath.Join(root, "a.json"), []byte("{}")); err != nil {
		t.Fatal(err)
	}
	r, err := Dir(nil, root)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Err(); err != nil {
		t.Errorf("clean tree: %v", err)
	}
	if r.Count(StatusOK) != 1 {
		t.Errorf("verdicts: %+v", r.Verdicts)
	}
}
