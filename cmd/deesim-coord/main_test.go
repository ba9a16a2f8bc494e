package main

// Cluster end-to-end tests against the real binaries: one deesim-coord
// coordinator and a fleet of deesimd workers as subprocesses. The
// fault drills are the ones the fabric exists for — SIGKILL a worker
// mid-sweep, SIGKILL the coordinator mid-sweep — and the acceptance
// bar is byte-identical merged results against an uninterrupted
// single-node control run.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"deesim/internal/client"
	"deesim/internal/server"
	"deesim/internal/superv"
)

var (
	binCoord  string
	binWorker string
)

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "coord-e2e")
	if err != nil {
		fmt.Fprintln(os.Stderr, "mktemp:", err)
		os.Exit(1)
	}
	defer os.RemoveAll(dir)
	binCoord = filepath.Join(dir, "deesim-coord")
	binWorker = filepath.Join(dir, "deesimd")
	for target, src := range map[string]string{binCoord: ".", binWorker: "../deesimd"} {
		if out, err := exec.Command("go", "build", "-o", target, src).CombinedOutput(); err != nil {
			fmt.Fprintf(os.Stderr, "build %s: %v\n%s", src, err, out)
			os.RemoveAll(dir)
			os.Exit(1)
		}
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// proc is one running subprocess of the cluster.
type proc struct {
	cmd  *exec.Cmd
	addr string
	log  string
}

// startProc launches bin with JSON logs. Stderr, the log, goes to
// <state>.log; stdout, which prints the bound address, to <state>.out.
func startProc(t *testing.T, bin, stateDir string, args ...string) *proc {
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
	args = append([]string{"-addr-file", addrFile, "-state", stateDir, "-log-json"}, args...)
	cmd := exec.Command(bin, args...)
	cmd.Stdout = outf
	cmd.Stderr = logf
	if err := cmd.Start(); err != nil {
		t.Fatalf("start %s: %v", bin, err)
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
			return &proc{cmd: cmd, addr: strings.TrimSpace(string(data)), log: logPath}
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s never published its address (log: %s)", bin, readLog(logPath))
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
			t.Fatalf("%s: log line is not a JSON object: %v\n%s", path, err, line)
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

// reservePort grabs a free TCP port and releases it, so a coordinator
// can be killed and restarted on the same address (the workers keep
// dialing it).
func reservePort(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// startCoord launches deesim-coord with fast failure detection.
func startCoord(t *testing.T, stateDir, addr string, extra ...string) *proc {
	t.Helper()
	return startProc(t, binCoord, stateDir, append([]string{
		"-addr", addr,
		"-heartbeat-timeout", "500ms",
		"-lease-ttl", "30s",
		"-cell-retries", "4",
		"-backoff", "100ms",
		"-metrics-out", filepath.Join(stateDir, "metrics.prom"),
	}, extra...)...)
}

// startWorker launches a deesimd worker registered with the coordinator.
func startWorker(t *testing.T, stateDir, coordURL string, extra ...string) *proc {
	t.Helper()
	return startProc(t, binWorker, stateDir, append([]string{
		"-addr", "127.0.0.1:0",
		"-coord", coordURL,
		"-heartbeat", "100ms",
		"-cell-jobs", "1",
		"-cell-slots", "1",
		"-metrics-out", filepath.Join(stateDir, "metrics.prom"),
	}, extra...)...)
}

func coordClient(addr string) *client.Client {
	c := client.New("http://" + addr)
	c.Retry = superv.RetryPolicy{Attempts: 8, Backoff: 100 * time.Millisecond}
	return c
}

// clusterSpec is a 6-cell sweep (2 models × 3 resource points). With
// one cell slot per worker the sweep runs in waves, which keeps every
// worker leased long enough for a mid-sweep SIGKILL to land on an
// outstanding lease deterministically.
func clusterSpec(cellDelay string) server.Spec {
	return server.Spec{
		Workloads: []string{"xlisp"},
		Models:    []string{"SP", "DEE-CD-MF"},
		Resources: []int{8, 32, 64},
		MaxInstrs: 3000,
		CellDelay: cellDelay,
	}
}

// controlResult runs the sweep on a lone deesimd (no coordinator) and
// returns the result bytes every distributed run must reproduce.
func controlResult(t *testing.T, ctx context.Context) []byte {
	t.Helper()
	d := startProc(t, binWorker, filepath.Join(t.TempDir(), "control"), "-addr", "127.0.0.1:0")
	c := coordClient(d.addr)
	st, err := c.Submit(ctx, clusterSpec(""))
	if err != nil {
		t.Fatalf("control submit: %v", err)
	}
	if _, err := c.Wait(ctx, st.ID, 50*time.Millisecond); err != nil {
		t.Fatalf("control wait: %v\nlog: %s", err, readLog(d.log))
	}
	raw, err := c.Result(ctx, st.ID)
	if err != nil {
		t.Fatalf("control result: %v", err)
	}
	d.cmd.Process.Kill()
	d.cmd.Wait()
	return raw
}

// waitFleet polls the coordinator until n workers are registered.
func waitFleet(t *testing.T, addr string, n int) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for {
		resp, err := http.Get("http://" + addr + "/v1/workers")
		if err == nil {
			var body bytes.Buffer
			body.ReadFrom(resp.Body)
			resp.Body.Close()
			if bytes.Count(body.Bytes(), []byte(`"id"`)) >= n {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("fleet never reached %d workers", n)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// metricValue scrapes one counter/gauge from the coordinator's
// /metrics (0 if the series has not appeared yet).
func metricValue(t *testing.T, addr, name string) float64 {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		return 0
	}
	defer resp.Body.Close()
	var body bytes.Buffer
	body.ReadFrom(resp.Body)
	for _, line := range strings.Split(body.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err != nil {
				t.Fatalf("unparsable metric %s: %q", name, line)
			}
			return v
		}
	}
	return 0
}

// TestClusterWorkerKillByteIdentical: three workers run a paced sweep,
// one is SIGKILL'd mid-flight. Its leases expire via heartbeat
// staleness, the cells re-dispatch, and the merged result is
// byte-identical to the single-node control. Fleet progress series are
// asserted monotone while the sweep runs. Every process logs JSON at
// -log-level warn: no Info record may appear, and the eviction must.
func TestClusterWorkerKillByteIdentical(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	control := controlResult(t, ctx)

	root := t.TempDir()
	warn := []string{"-log-level", "warn"}
	coord := startCoord(t, filepath.Join(root, "coord"), "127.0.0.1:0", warn...)
	coordURL := "http://" + coord.addr
	workers := make([]*proc, 3)
	for i := range workers {
		workers[i] = startWorker(t, filepath.Join(root, fmt.Sprintf("w%d", i)), coordURL, warn...)
	}
	waitFleet(t, coord.addr, 3)

	c := coordClient(coord.addr)
	st, err := c.Submit(ctx, clusterSpec("600ms"))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}

	// Wait for mid-sweep (≥1 durable cell, ≥1 outstanding), watching the
	// fleet series for monotonicity as we go.
	var lastDone, lastGranted float64
	killed := false
	for {
		cur, err := c.Status(ctx, st.ID)
		if err != nil {
			t.Fatalf("status: %v", err)
		}
		done := metricValue(t, coord.addr, "deesim_coord_cells_done_total")
		granted := metricValue(t, coord.addr, "deesim_coord_leases_granted_total")
		if done < lastDone || granted < lastGranted {
			t.Fatalf("fleet series regressed mid-sweep: done %v->%v granted %v->%v", lastDone, done, lastGranted, granted)
		}
		if granted < done {
			t.Fatalf("granted %v < done %v: completions without leases", granted, done)
		}
		lastDone, lastGranted = done, granted

		if !killed && cur.CellsDone >= 1 && cur.CellsDone < cur.CellsTotal {
			workers[0].cmd.Process.Kill() // SIGKILL: heartbeats stop mid-lease
			workers[0].cmd.Wait()
			killed = true
		}
		if cur.State == server.StateDone {
			if !killed {
				t.Fatal("sweep finished before the kill window; raise cell_delay")
			}
			break
		}
		if cur.State == server.StateFailed {
			t.Fatalf("sweep failed: %s\ncoord log: %s", cur.Error, readLog(coord.log))
		}
		if ctx.Err() != nil {
			t.Fatalf("sweep stuck (last: %+v)\ncoord log: %s", cur, readLog(coord.log))
		}
		time.Sleep(50 * time.Millisecond)
	}

	raw, err := c.Result(ctx, st.ID)
	if err != nil {
		t.Fatalf("result: %v", err)
	}
	if !bytes.Equal(raw, control) {
		t.Fatalf("distributed result differs from single-node control (%d vs %d bytes)", len(raw), len(control))
	}
	if ev := metricValue(t, coord.addr, "deesim_coord_worker_evictions_total"); ev < 1 {
		t.Errorf("worker evictions = %v, want ≥1 after the kill", ev)
	}
	if re := metricValue(t, coord.addr, "deesim_coord_redispatches_total"); re < 1 {
		t.Errorf("redispatches = %v, want ≥1 after the kill", re)
	}

	// Drain the survivors: SIGTERM everywhere must exit 0.
	for _, p := range append(workers[1:], coord) {
		p.cmd.Process.Signal(syscall.SIGTERM)
	}
	for _, p := range append(workers[1:], coord) {
		done := make(chan error, 1)
		go func(p *proc) { done <- p.cmd.Wait() }(p)
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("drain exit: %v (log: %s)", err, readLog(p.log))
			}
		case <-time.After(30 * time.Second):
			p.cmd.Process.Kill()
			t.Errorf("process did not drain (log: %s)", readLog(p.log))
		}
	}
	// The signal-flush satellite: -metrics-out written on SIGTERM.
	if _, err := os.Stat(filepath.Join(root, "coord", "metrics.prom")); err != nil {
		t.Errorf("coordinator metrics not flushed on SIGTERM: %v", err)
	}
	evicted := false
	for _, p := range append(workers, coord) {
		for _, rec := range logRecords(t, p.log) {
			if rec["level"] == "INFO" || rec["level"] == "DEBUG" {
				t.Errorf("%s: -log-level warn let through %v", p.log, rec)
			}
			if p == coord && rec["msg"] == "worker lost: heartbeat stale" && rec["worker"] != nil {
				evicted = true
			}
		}
	}
	if !evicted {
		t.Errorf("coordinator log has no worker-lost record:\n%s", readLog(coord.log))
	}
}

// TestClusterCoordinatorKillResume: SIGKILL the coordinator mid-sweep,
// restart it on the same address over the same state directory. The
// workers re-register through the heartbeat 400 path, the sweep
// resumes from its journal without re-running finished cells, and the
// merged result is byte-identical to the control.
func TestClusterCoordinatorKillResume(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	control := controlResult(t, ctx)

	root := t.TempDir()
	coordAddr := reservePort(t)
	coordState := filepath.Join(root, "coord")
	coord := startCoord(t, coordState, coordAddr)
	coordURL := "http://" + coordAddr
	w1 := startWorker(t, filepath.Join(root, "w1"), coordURL)
	w2 := startWorker(t, filepath.Join(root, "w2"), coordURL)
	waitFleet(t, coordAddr, 2)

	c := coordClient(coordAddr)
	st, err := c.Submit(ctx, clusterSpec("600ms"))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	for {
		cur, err := c.Status(ctx, st.ID)
		if err != nil {
			t.Fatalf("status: %v", err)
		}
		if cur.CellsDone >= 1 && cur.CellsDone < cur.CellsTotal {
			break
		}
		if cur.State == server.StateDone {
			t.Fatal("sweep finished before the kill window; raise cell_delay")
		}
		if ctx.Err() != nil {
			t.Fatalf("never reached mid-sweep (last: %+v)", cur)
		}
		time.Sleep(20 * time.Millisecond)
	}
	coord.cmd.Process.Kill() // SIGKILL: journal survives, in-memory state does not
	coord.cmd.Wait()

	coord2 := startCoord(t, coordState, coordAddr)
	final, err := coordClient(coordAddr).Wait(ctx, st.ID, 50*time.Millisecond)
	if err != nil {
		t.Fatalf("wait after coordinator restart: %v\nlog: %s", err, readLog(coord2.log))
	}
	if !final.Resumed {
		t.Errorf("sweep not marked resumed after coordinator restart: %+v", final)
	}
	raw, err := coordClient(coordAddr).Result(ctx, st.ID)
	if err != nil {
		t.Fatalf("result after restart: %v", err)
	}
	if !bytes.Equal(raw, control) {
		t.Fatalf("resumed distributed result differs from control (%d vs %d bytes)", len(raw), len(control))
	}
	resumed := false
	for _, rec := range logRecords(t, coord2.log) {
		resumed = resumed || rec["msg"] == "resuming" && rec["sweep"] == st.ID
	}
	if !resumed {
		t.Errorf("restarted coordinator log has no resuming record with sweep=%s:\n%s", st.ID, readLog(coord2.log))
	}

	for _, p := range []*proc{w1, w2, coord2} {
		p.cmd.Process.Signal(syscall.SIGTERM)
		done := make(chan error, 1)
		go func(p *proc) { done <- p.cmd.Wait() }(p)
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			p.cmd.Process.Kill()
			t.Errorf("process did not drain (log: %s)", readLog(p.log))
		}
	}
}
