package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"deesim/internal/durable"
	"deesim/internal/faultinject"
	"deesim/internal/memo"
	"deesim/internal/obs/obstest"
	"deesim/internal/runx"
	"deesim/internal/server"
)

// smokeSpec is a sub-second 4-cell sweep: one workload, two models,
// two resource levels, tight instruction cap.
const smokeSpec = `{"workloads":["xlisp"],"models":["SP","DEE-CD-MF"],"resources":[8,64],"max":3000}`

func TestCtlEndToEnd(t *testing.T) {
	s, err := server.New(server.Config{StateDir: t.TempDir()})
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	s.Start()
	defer s.Close()
	h := httptest.NewServer(s.Handler())
	defer h.Close()

	specPath := filepath.Join(t.TempDir(), "spec.json")
	if err := os.WriteFile(specPath, []byte(smokeSpec), 0o644); err != nil {
		t.Fatal(err)
	}

	run := func(args ...string) (int, string, string) {
		var out, errb bytes.Buffer
		code := realMain(append([]string{"-server", h.URL, "-poll", "20ms"}, args...),
			strings.NewReader(""), &out, &errb)
		return code, out.String(), errb.String()
	}

	code, out, errb := run("submit", specPath)
	if code != runx.ExitOK {
		t.Fatalf("submit exited %d: %s", code, errb)
	}
	id := strings.TrimSpace(out)
	if id != "j000001" {
		t.Fatalf("submit printed %q, want the job id j000001", out)
	}

	code, out, errb = run("wait", id)
	if code != runx.ExitOK {
		t.Fatalf("wait exited %d: %s", code, errb)
	}
	var st server.JobStatus
	if err := json.Unmarshal([]byte(out), &st); err != nil {
		t.Fatalf("wait output unparsable: %v\n%s", err, out)
	}
	if st.State != server.StateDone || st.CellsDone != 4 {
		t.Fatalf("wait status = %+v, want done 4/4", st)
	}

	code, out, errb = run("result", id)
	if code != runx.ExitOK {
		t.Fatalf("result exited %d: %s", code, errb)
	}
	var tables []json.RawMessage
	if err := json.Unmarshal([]byte(out), &tables); err != nil {
		t.Fatalf("result output unparsable: %v", err)
	}
	if len(tables) == 0 {
		t.Fatal("result printed an empty table set")
	}

	code, out, errb = run("list")
	if code != runx.ExitOK || !strings.Contains(out, id) {
		t.Fatalf("list exited %d without job %s: %s%s", code, id, out, errb)
	}

	if code, _, errb = run("health"); code != runx.ExitOK {
		t.Fatalf("health exited %d: %s", code, errb)
	}
}

func TestCtlSubmitWaitFromStdin(t *testing.T) {
	s, err := server.New(server.Config{StateDir: t.TempDir()})
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	s.Start()
	defer s.Close()
	h := httptest.NewServer(s.Handler())
	defer h.Close()

	var out, errb bytes.Buffer
	code := realMain([]string{"-server", h.URL, "-poll", "20ms", "-wait", "submit", "-"},
		strings.NewReader(smokeSpec), &out, &errb)
	if code != runx.ExitOK {
		t.Fatalf("submit -wait exited %d: %s", code, errb.String())
	}
	var tables []json.RawMessage
	if err := json.Unmarshal(out.Bytes(), &tables); err != nil {
		t.Fatalf("submit -wait did not print result JSON: %v\n%s", err, out.String())
	}
}

// TestCtlFsck: the offline integrity check exits 0 on a clean state
// directory and with the corrupt-kind code once an artifact stops
// matching its digest — and again while damage sits in quarantine.
func TestCtlFsck(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "result.json")
	if err := durable.WriteFileAtomic(nil, path, []byte(`{"ok":true}`)); err != nil {
		t.Fatal(err)
	}
	run := func() (int, string) {
		var out, errb bytes.Buffer
		code := realMain([]string{"fsck", dir}, strings.NewReader(""), &out, &errb)
		return code, out.String() + errb.String()
	}
	if code, all := run(); code != runx.ExitOK {
		t.Fatalf("clean fsck exited %d: %s", code, all)
	}
	ffs := faultinject.NewFaultyFS(nil, 31)
	if _, err := ffs.RotFile(path); err != nil {
		t.Fatal(err)
	}
	code, all := run()
	if code != runx.ExitCorrupt {
		t.Fatalf("corrupt fsck exited %d, want %d: %s", code, runx.ExitCorrupt, all)
	}
	if !strings.Contains(all, "corrupt") {
		t.Errorf("corrupt fsck output missing verdict: %s", all)
	}
	// The daemon's remediation is quarantine; fsck must keep flagging it.
	if _, err := durable.Quarantine(nil, path); err != nil {
		t.Fatal(err)
	}
	if code, all := run(); code != runx.ExitCorrupt || !strings.Contains(all, "quarantined") {
		t.Fatalf("quarantined fsck exited %d: %s", code, all)
	}
}

func TestCtlExitCodes(t *testing.T) {
	s, err := server.New(server.Config{StateDir: t.TempDir()})
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	s.Start()
	defer s.Close()
	h := httptest.NewServer(s.Handler())
	defer h.Close()

	run := func(args ...string) int {
		var out, errb bytes.Buffer
		return realMain(append([]string{"-server", h.URL, "-retries", "0"}, args...),
			strings.NewReader(""), &out, &errb)
	}

	if code := run(); code != runx.ExitUsage {
		t.Fatalf("no command exited %d, want %d", code, runx.ExitUsage)
	}
	if code := run("bogus"); code != runx.ExitUsage {
		t.Fatalf("unknown command exited %d, want %d", code, runx.ExitUsage)
	}
	if code := run("status"); code != runx.ExitInvalidInput {
		t.Fatalf("status with no id exited %d, want %d", code, runx.ExitInvalidInput)
	}
	if code := run("status", "j999999"); code != runx.ExitInvalidInput {
		t.Fatalf("unknown job exited %d, want %d", code, runx.ExitInvalidInput)
	}
	// A result that is not ready yet is a retryable unavailability, not
	// an input error: scripts get exit 11 and should come back later.
	st, err := s.Submit(server.Spec{Workloads: []string{"xlisp"}, Models: []string{"SP"}, Resources: []int{8}, MaxInstrs: 3000, CellDelay: "2s"})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if code := run("result", st.ID); code != runx.ExitUnavailable {
		t.Fatalf("early result exited %d, want %d", code, runx.ExitUnavailable)
	}
}

func TestCtlMemoStatsAndPurge(t *testing.T) {
	dir := t.TempDir()
	m, err := memo.New(memo.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Put("cell|a", []byte("aaaa")); err != nil {
		t.Fatal(err)
	}
	if err := m.Put("cell|b", []byte("bb")); err != nil {
		t.Fatal(err)
	}

	run := func(args ...string) (int, string, string) {
		var out, errb bytes.Buffer
		code := realMain(args, strings.NewReader(""), &out, &errb)
		return code, out.String(), errb.String()
	}

	code, out, errb := run("memo", "stats", dir)
	if code != runx.ExitOK {
		t.Fatalf("memo stats exited %d: %s", code, errb)
	}
	var st memo.Stats
	if err := json.Unmarshal([]byte(out), &st); err != nil {
		t.Fatalf("memo stats output not JSON: %v\n%s", err, out)
	}
	if st.Entries != 2 || st.Bytes != 6 {
		t.Fatalf("memo stats = %+v; want 2 entries, 6 bytes", st)
	}

	code, out, errb = run("memo", "purge", dir)
	if code != runx.ExitOK {
		t.Fatalf("memo purge exited %d: %s", code, errb)
	}
	if !strings.Contains(out, "purged 2 cache entries") {
		t.Fatalf("purge output %q missing count", out)
	}
	if code, out, _ = run("memo", "stats", dir); code != runx.ExitOK {
		t.Fatal("stats after purge failed")
	}
	if err := json.Unmarshal([]byte(out), &st); err != nil || st.Entries != 0 {
		t.Fatalf("post-purge stats = %+v, %v; want empty", st, err)
	}

	// Usage errors: missing args and unknown subcommand are invalid input.
	if code, _, _ := run("memo"); code != runx.ExitInvalidInput {
		t.Fatalf("bare memo exited %d, want %d", code, runx.ExitInvalidInput)
	}
	if code, _, _ := run("memo", "defrag", dir); code != runx.ExitInvalidInput {
		t.Fatalf("unknown subcommand exited %d, want %d", code, runx.ExitInvalidInput)
	}
	if code, _, _ := run("memo", "stats", filepath.Join(dir, "missing")); code != runx.ExitInvalidInput {
		t.Fatalf("missing dir exited %d, want %d", code, runx.ExitInvalidInput)
	}
}

// TestLifecycle: with -log-json every stderr line is a JSON record —
// the client's retries, the accepted and trace lines, and the exit
// record — a command past its -timeout exits with the deadline code,
// and -metrics-out is written on every path.
func TestLifecycle(t *testing.T) {
	s, err := server.New(server.Config{StateDir: t.TempDir()})
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	s.Start()
	defer s.Close()
	h := httptest.NewServer(s.Handler())
	defer h.Close()
	// hang answers nothing until the request is given up.
	hang := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-r.Context().Done()
	}))
	defer hang.Close()
	specPath := filepath.Join(t.TempDir(), "spec.json")
	if err := os.WriteFile(specPath, []byte(smokeSpec), 0o644); err != nil {
		t.Fatal(err)
	}

	main := func(args []string, stdout, stderr io.Writer) int {
		return realMain(args, strings.NewReader(""), stdout, stderr)
	}
	obstest.Lifecycle(t, main, []obstest.Case{
		{Name: "submit and wait", Args: []string{"-server", h.URL, "-poll", "20ms", "-wait", "submit", specPath}, Code: runx.ExitOK},
		{Name: "unavailable", Args: []string{"-server", "http://127.0.0.1:1", "-retries", "1", "-backoff", "1ms", "health"}, Code: runx.ExitUnavailable},
		{Name: "deadline", Args: []string{"-server", hang.URL, "-retries", "0", "-timeout", "50ms", "status", "j000001"}, Code: runx.ExitDeadline},
	})
}
