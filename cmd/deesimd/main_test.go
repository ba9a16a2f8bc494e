package main

// End-to-end crash tests against the real deesimd binary: build it,
// run it as a subprocess, kill it mid-sweep, and prove the restarted
// daemon finishes the job with a byte-identical result. These are the
// only tests in the repo that exercise the full process boundary —
// SIGKILL, SIGTERM, exit codes — rather than in-process servers.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"deesim/internal/client"
	"deesim/internal/durable"
	"deesim/internal/server"
	"deesim/internal/superv"
)

var binPath string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "deesimd-e2e")
	if err != nil {
		fmt.Fprintln(os.Stderr, "mktemp:", err)
		os.Exit(1)
	}
	defer os.RemoveAll(dir)
	binPath = filepath.Join(dir, "deesimd")
	if out, err := exec.Command("go", "build", "-o", binPath, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "build deesimd: %v\n%s", err, out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// daemon is one running deesimd subprocess.
type daemon struct {
	cmd  *exec.Cmd
	addr string
	log  string // stderr log path, appended across restarts
}

// startDaemon launches deesimd against stateDir on an ephemeral port
// and waits for it to publish its address. Stderr, the log, goes to
// <state>.log; stdout, which prints the bound address, to <state>.out.
func startDaemon(t *testing.T, stateDir string, extra ...string) *daemon {
	t.Helper()
	addrFile := filepath.Join(t.TempDir(), "addr")
	logPath := filepath.Join(stateDir, "..", filepath.Base(stateDir)+".log")
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer logf.Close()
	outf, err := os.OpenFile(strings.TrimSuffix(logPath, ".log")+".out", os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer outf.Close()
	args := append([]string{
		"-addr", "127.0.0.1:0", "-addr-file", addrFile, "-state", stateDir,
		"-cell-jobs", "1",
	}, extra...)
	cmd := exec.Command(binPath, args...)
	cmd.Stdout = outf
	cmd.Stderr = logf
	if err := cmd.Start(); err != nil {
		t.Fatalf("start deesimd: %v", err)
	}
	t.Cleanup(func() {
		if cmd.ProcessState == nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})
	deadline := time.Now().Add(15 * time.Second)
	for {
		if data, err := os.ReadFile(addrFile); err == nil && len(bytes.TrimSpace(data)) > 0 {
			return &daemon{cmd: cmd, addr: strings.TrimSpace(string(data)), log: logPath}
		}
		if time.Now().After(deadline) {
			t.Fatalf("deesimd never published its address (log: %s)", readLog(logPath))
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// logRecords decodes a -log-json log, one JSON object per line.
func logRecords(t *testing.T, path string) []map[string]any {
	t.Helper()
	var recs []map[string]any
	for _, line := range strings.Split(strings.TrimSpace(readLog(path)), "\n") {
		if line == "" {
			continue
		}
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("log line is not a JSON object: %v\n%s", err, line)
		}
		recs = append(recs, rec)
	}
	return recs
}

func readLog(path string) string {
	data, err := os.ReadFile(path)
	if err != nil {
		return err.Error()
	}
	return string(data)
}

// waitExit waits for the daemon process with a timeout, returning its
// exit code.
func (d *daemon) waitExit(t *testing.T, timeout time.Duration) int {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	select {
	case err := <-done:
		if err == nil {
			return 0
		}
		if ee, ok := err.(*exec.ExitError); ok {
			return ee.ExitCode()
		}
		t.Fatalf("wait deesimd: %v", err)
		return -1
	case <-time.After(timeout):
		d.cmd.Process.Kill()
		t.Fatalf("deesimd did not exit within %s (log: %s)", timeout, readLog(d.log))
		return -1
	}
}

func (d *daemon) client() *client.Client {
	c := client.New("http://" + d.addr)
	c.Retry = superv.RetryPolicy{Attempts: 6, Backoff: 50 * time.Millisecond}
	return c
}

func e2eSpec(cellDelay string) server.Spec {
	return server.Spec{
		Workloads: []string{"xlisp"},
		Models:    []string{"SP", "DEE-CD-MF"},
		Resources: []int{8, 64},
		MaxInstrs: 3000,
		CellDelay: cellDelay,
	}
}

// TestJSONLogsObeyLevel: with -log-json every stderr line is one JSON
// object; -log-level warn drops every Info lifecycle record, and at
// info the accepted and done records name the job in an attribute.
func TestJSONLogsObeyLevel(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for _, level := range []string{"warn", "info"} {
		d := startDaemon(t, filepath.Join(t.TempDir(), level), "-log-json", "-log-level", level)
		c := d.client()
		st, err := c.Submit(ctx, e2eSpec(""))
		if err != nil {
			t.Fatalf("%s: submit: %v", level, err)
		}
		if _, err := c.Wait(ctx, st.ID, 50*time.Millisecond); err != nil {
			t.Fatalf("%s: wait: %v\nlog: %s", level, err, readLog(d.log))
		}
		d.cmd.Process.Signal(syscall.SIGTERM)
		if code := d.waitExit(t, 20*time.Second); code != 0 {
			t.Fatalf("%s: drain exited %d, want 0\nlog: %s", level, code, readLog(d.log))
		}
		seen := map[string]bool{}
		for _, rec := range logRecords(t, d.log) {
			if level == "warn" && (rec["level"] == "INFO" || rec["level"] == "DEBUG") {
				t.Errorf("-log-level warn let through %v", rec)
			}
			if rec["job"] == st.ID {
				seen[rec["msg"].(string)] = true
			}
		}
		if level == "info" && !(seen["accepted"] && seen["done"]) {
			t.Errorf("info log lacks accepted and done records with job=%s:\n%s", st.ID, readLog(d.log))
		}
	}
}

func TestKillAndRestartResumesByteIdentical(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()

	// Control: the same sweep, uninterrupted, on a throwaway daemon.
	controlDir := filepath.Join(t.TempDir(), "control")
	ctl := startDaemon(t, controlDir)
	c := ctl.client()
	st, err := c.Submit(ctx, e2eSpec(""))
	if err != nil {
		t.Fatalf("control submit: %v", err)
	}
	if _, err := c.Wait(ctx, st.ID, 50*time.Millisecond); err != nil {
		t.Fatalf("control wait: %v\nlog: %s", err, readLog(ctl.log))
	}
	control, err := c.Result(ctx, st.ID)
	if err != nil {
		t.Fatalf("control result: %v", err)
	}
	// SIGTERM with nothing running must exit 0 promptly.
	ctl.cmd.Process.Signal(syscall.SIGTERM)
	if code := ctl.waitExit(t, 20*time.Second); code != 0 {
		t.Fatalf("idle drain exited %d, want 0\nlog: %s", code, readLog(ctl.log))
	}

	// Crash run: pace the sweep so SIGKILL lands mid-job, with at least
	// one cell journaled and at least one still outstanding.
	crashDir := filepath.Join(t.TempDir(), "crash")
	d := startDaemon(t, crashDir)
	c = d.client()
	st, err = c.Submit(ctx, e2eSpec("600ms"))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	id := st.ID
	for {
		cur, err := c.Status(ctx, id)
		if err != nil {
			t.Fatalf("status: %v", err)
		}
		if cur.CellsDone >= 1 && cur.CellsDone < cur.CellsTotal {
			break
		}
		if cur.State == server.StateDone {
			t.Fatal("sweep finished before it could be killed; raise cell_delay")
		}
		if ctx.Err() != nil {
			t.Fatalf("never reached mid-sweep state (last: %+v)", cur)
		}
		time.Sleep(10 * time.Millisecond)
	}
	d.cmd.Process.Kill() // SIGKILL: no drain, no journal flush beyond what's already fsync'd
	d.cmd.Wait()

	// Restart over the same state directory: the job must be recovered,
	// resumed from its journal, and finish with the identical result.
	d2 := startDaemon(t, crashDir)
	c = d2.client()
	final, err := c.Wait(ctx, id, 50*time.Millisecond)
	if err != nil {
		t.Fatalf("wait after restart: %v\nlog: %s", err, readLog(d2.log))
	}
	if !final.Resumed {
		t.Errorf("job status after restart not marked resumed: %+v", final)
	}
	resumed, err := c.Result(ctx, id)
	if err != nil {
		t.Fatalf("result after restart: %v", err)
	}
	if !bytes.Equal(resumed, control) {
		t.Fatalf("resumed result differs from uninterrupted control run\ncontrol %d bytes, resumed %d bytes", len(control), len(resumed))
	}
	// The journal must prove this was a genuine resume, not a rerun
	// from scratch: some cells recorded before the kill.
	jst, err := superv.Load(filepath.Join(crashDir, "jobs", id, "run.journal"))
	if err != nil {
		t.Fatalf("load journal: %v", err)
	}
	if len(jst.Done) < final.CellsTotal {
		t.Fatalf("journal has %d done cells, want all %d", len(jst.Done), final.CellsTotal)
	}
	d2.cmd.Process.Signal(syscall.SIGTERM)
	if code := d2.waitExit(t, 20*time.Second); code != 0 {
		t.Fatalf("final drain exited %d, want 0", code)
	}
}

func TestSigtermMidSweepDrainsAndExitsZero(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	stateDir := filepath.Join(t.TempDir(), "state")
	d := startDaemon(t, stateDir, "-drain-grace", "300ms")
	c := d.client()
	st, err := c.Submit(ctx, e2eSpec("30s")) // effectively unfinishable
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	for {
		cur, err := c.Status(ctx, st.ID)
		if err != nil {
			t.Fatalf("status: %v", err)
		}
		if cur.CellsDone >= 1 {
			break
		}
		if ctx.Err() != nil {
			t.Fatal("sweep never started")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// SIGTERM during the active sweep: the daemon must close admission,
	// give the job its (short) grace, cancel it with progress journaled,
	// and exit 0 — the acceptance contract for graceful drain.
	d.cmd.Process.Signal(syscall.SIGTERM)
	if code := d.waitExit(t, 30*time.Second); code != 0 {
		t.Fatalf("drain under load exited %d, want 0\nlog: %s", code, readLog(d.log))
	}
	jst, err := superv.Load(filepath.Join(stateDir, "jobs", st.ID, "run.journal"))
	if err != nil {
		t.Fatalf("load journal after drain: %v", err)
	}
	if len(jst.Done) < 1 {
		t.Fatal("drained job journaled no completed cells")
	}

	// And the restarted daemon resumes it once the pacing is removed.
	spec := filepath.Join(stateDir, "jobs", st.ID, "spec.json")
	fast, err := os.ReadFile(spec)
	if err != nil {
		t.Fatal(err)
	}
	// The spec is a digest-verified artifact: edit it through the durable
	// writer so the sidecar follows, as an operator would re-run sha256sum.
	if err := durable.WriteFileAtomic(nil, spec, bytes.Replace(fast, []byte(`"30s"`), []byte(`"0s"`), 1)); err != nil {
		t.Fatal(err)
	}
	d2 := startDaemon(t, stateDir)
	c = d2.client()
	final, err := c.Wait(ctx, st.ID, 50*time.Millisecond)
	if err != nil {
		t.Fatalf("wait after drain restart: %v\nlog: %s", err, readLog(d2.log))
	}
	if final.State != server.StateDone {
		t.Fatalf("resumed job state = %q, want done", final.State)
	}
	d2.cmd.Process.Signal(syscall.SIGTERM)
	d2.waitExit(t, 20*time.Second)
}
