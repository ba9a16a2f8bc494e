package durable

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"deesim/internal/runx"
)

type testRec struct {
	Kind string `json:"kind"`
	Key  string `json:"key,omitempty"`
}

var testKind = LogKind{Stage: "durable.test"}

// TestLogLineFormat pins the line format both journal families share:
// every line's final key is "sum", the digest of the line without it.
func TestLogLineFormat(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.journal")
	l, err := CreateLog[testRec](nil, path, testKind, "tool", map[string]string{"k": "v"})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(testRec{Kind: "x", Key: "a"}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(testRec{Kind: "x", Key: "b"}); !runx.IsKind(err, runx.KindInvalidInput) {
		t.Errorf("append to a closed log = %v, want KindInvalidInput", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(data, []byte("\n"))
	if len(lines) != 3 || len(lines[2]) != 0 {
		t.Fatalf("log holds %q, want header + one record", data)
	}
	for _, line := range lines[:2] {
		i := bytes.LastIndex(line, []byte(`,"sum":"`))
		if i < 0 || !bytes.HasSuffix(line, []byte("\"}\n")) {
			t.Fatalf("line %q does not end in its sum", line)
		}
		body := append(append([]byte(nil), line[:i]...), '}')
		if err := Verify(body, string(line[i+len(`,"sum":"`):len(line)-3])); err != nil {
			t.Errorf("line %q: %v", line, err)
		}
	}
}

// TestReopenLog walks the resume-or-quarantine-or-create decision.
func TestReopenLog(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.journal")
	var calls []string
	resumeWith := func(err error) func() error {
		return func() error { calls = append(calls, "resume"); return err }
	}
	create := func() error {
		calls = append(calls, "create")
		return os.WriteFile(path, []byte("fresh\n"), 0o644)
	}
	check := func(name string, want ...string) {
		t.Helper()
		if !slices.Equal(calls, want) {
			t.Errorf("%s: calls %v, want %v", name, calls, want)
		}
		calls = nil
	}

	if qp, _, err := ReopenLog(nil, path, resumeWith(nil), create); err != nil || qp != "" {
		t.Fatalf("no log: qp %q err %v", qp, err)
	}
	check("no log", "create")

	if qp, _, err := ReopenLog(nil, path, resumeWith(nil), create); err != nil || qp != "" {
		t.Fatalf("resumable log: qp %q err %v", qp, err)
	}
	check("resumable log", "resume")

	full := runx.Newf(runx.KindUnavailable, "t", "disk full")
	if qp, _, err := ReopenLog(nil, path, resumeWith(full), create); err != full || qp != "" {
		t.Fatalf("full disk: qp %q err %v, want the resume error and no quarantine", qp, err)
	}
	check("full disk", "resume")

	bad := runx.Newf(runx.KindCorrupt, "t", "bad record")
	qp, cause, err := ReopenLog(nil, path, resumeWith(bad), create)
	if err != nil || cause != bad {
		t.Fatalf("corrupt log: cause %v err %v", cause, err)
	}
	check("corrupt log", "resume", "create")
	if qp != filepath.Join(dir, QuarantineDir, "run.journal") {
		t.Errorf("quarantined to %q", qp)
	}
	if got, err := os.ReadFile(qp); err != nil || string(got) != "fresh\n" {
		t.Errorf("quarantined copy %q, %v", got, err)
	}
}
