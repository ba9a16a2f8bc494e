package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"deesim/internal/dee"
	"deesim/internal/ilpsim"
	"deesim/internal/obs"
	"deesim/internal/obs/obstest"
	"deesim/internal/runx"
	"deesim/internal/superv"
)

// run invokes the CLI in-process and returns (exit code, stdout, stderr).
func run(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errb bytes.Buffer
	code := realMain(args, &out, &errb)
	return code, out.String(), errb.String()
}

// fastArgs keeps e2e sweeps to a couple of seconds.
func fastArgs(extra ...string) []string {
	return append([]string{
		"-bench", "xlisp,compress", "-max", "5000",
		"-models", "SP,DEE-CD-MF", "-resources", "8,64",
	}, extra...)
}

// TestJournalResumeEndToEnd exercises -journal and -resume through the
// real CLI: a journaled run prints exactly the plain run's bytes (every
// panel in -bench order, whatever -jobs is), and a journal with a torn
// tail and missing records must resume to byte-identical output.
func TestJournalResumeEndToEnd(t *testing.T) {
	code, plain, stderr := run(t, fastArgs("-jobs", "1")...)
	if code != 0 {
		t.Fatalf("plain run exited %d: %s", code, stderr)
	}
	for _, panel := range []string{"xlisp", "compress", "harmonic-mean"} {
		if !strings.Contains(plain, panel) {
			t.Errorf("plain output missing %s panel", panel)
		}
	}
	if xi, ci := strings.Index(plain, "xlisp"), strings.Index(plain, "compress"); xi > ci {
		t.Errorf("panels not in -bench order (xlisp@%d, compress@%d)", xi, ci)
	}

	dir := t.TempDir()
	journal := filepath.Join(dir, "run.journal")
	code, journaled, stderr := run(t, fastArgs("-journal", journal, "-jobs", "4")...)
	if code != 0 {
		t.Fatalf("journaled run exited %d: %s", code, stderr)
	}
	if journaled != plain {
		t.Errorf("journaled -jobs 4 output differs from plain -jobs 1:\n--- journaled ---\n%s\n--- plain ---\n%s", journaled, plain)
	}

	// Simulate a crash: tear the journal tail (losing its final record
	// mid-write) and resume. Output must be byte-identical again.
	data, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(journal, data[:len(data)-40], 0o644); err != nil {
		t.Fatal(err)
	}
	code, resumed, stderr := run(t, fastArgs("-resume", journal, "-jobs", "2")...)
	if code != 0 {
		t.Fatalf("resumed run exited %d: %s", code, stderr)
	}
	if !strings.Contains(stderr, "resuming") {
		t.Errorf("resume did not report replay progress: %s", stderr)
	}
	if resumed != plain {
		t.Errorf("resumed tables differ from uninterrupted run:\n--- resumed ---\n%s\n--- uninterrupted ---\n%s", resumed, plain)
	}

	// A journal recorded under a different matrix must be refused.
	code, _, stderr = run(t, "-bench", "xlisp", "-max", "5000",
		"-models", "SP", "-resources", "8", "-resume", journal)
	if code == 0 {
		t.Error("resume under a changed matrix succeeded")
	} else if !strings.Contains(stderr, "journal") {
		t.Errorf("unhelpful refusal: %s", stderr)
	}
}

// TestFsckJournalEndToEnd: -fsck replays a journal's record digests —
// exit 0 on a clean journal, the corrupt-kind exit code after a
// mid-file bit flip, and usage guidance without -journal.
func TestFsckJournalEndToEnd(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "run.journal")
	code, _, stderr := run(t, "-bench", "xlisp", "-max", "3000",
		"-models", "SP", "-resources", "8", "-journal", journal)
	if code != 0 {
		t.Fatalf("journaled run exited %d: %s", code, stderr)
	}
	code, out, stderr := run(t, "-fsck", "-journal", journal)
	if code != 0 {
		t.Fatalf("clean fsck exited %d: %s", code, stderr)
	}
	if !strings.Contains(out, "ok") {
		t.Errorf("clean fsck output: %s", out)
	}

	data, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(journal, data, 0o644); err != nil {
		t.Fatal(err)
	}
	code, out, _ = run(t, "-fsck", "-journal", journal)
	if code != runx.ExitCorrupt {
		t.Fatalf("corrupt fsck exited %d, want %d:\n%s", code, runx.ExitCorrupt, out)
	}

	if code, _, stderr := run(t, "-fsck"); code == 0 || !strings.Contains(stderr, "-journal") {
		t.Errorf("-fsck without -journal exited %d: %s", code, stderr)
	}
}

// TestGoldenWriteAndCompareEndToEnd: -write-golden then -golden round
// trips cleanly, and a drifted golden fails with attribution.
func TestGoldenWriteAndCompareEndToEnd(t *testing.T) {
	dir := t.TempDir()
	golden := filepath.Join(dir, "smoke.json")
	code, _, stderr := run(t, fastArgs("-write-golden", golden, "-figure", "e2e-smoke")...)
	if code != 0 {
		t.Fatalf("write-golden exited %d: %s", code, stderr)
	}
	code, _, stderr = run(t, fastArgs("-golden", golden)...)
	if code != 0 {
		t.Fatalf("golden compare exited %d: %s", code, stderr)
	}
	if !strings.Contains(stderr, "within tolerance") {
		t.Errorf("no compare confirmation: %s", stderr)
	}

	// Inject a 5% drift into one golden cell; the compare must fail with
	// a typed regression naming the model, benchmark, and figure.
	g, err := superv.LoadGolden(golden)
	if err != nil {
		t.Fatal(err)
	}
	g.Points[0].Speedup *= 1.05
	if err := g.Write(golden); err != nil {
		t.Fatal(err)
	}
	code, _, stderr = run(t, fastArgs("-golden", golden)...)
	if code == 0 {
		t.Fatal("drifted golden passed the gate")
	}
	for _, want := range []string{"golden regression", "e2e-smoke", g.Points[0].Model, g.Points[0].Benchmark} {
		if !strings.Contains(stderr, want) {
			t.Errorf("regression error %q missing %q", stderr, want)
		}
	}
}

func TestJournalAndResumeMutuallyExclusive(t *testing.T) {
	code, _, stderr := run(t, fastArgs("-journal", "a", "-resume", "b")...)
	if code == 0 || !strings.Contains(stderr, "mutually exclusive") {
		t.Errorf("exit %d, stderr %s", code, stderr)
	}
}

// TestCSVOnly: -csv prints nothing but CSV — one header, then one row
// per model and resource count and one Oracle row for every workload
// panel, harmonic mean included, in -bench order.
func TestCSVOnly(t *testing.T) {
	code, out, stderr := run(t, fastArgs("-csv", "-stats")...)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
	if lines[0] != "workload,model,resources,speedup" {
		t.Fatalf("first line %q, want the CSV header", lines[0])
	}
	var order []string
	for _, l := range lines[1:] {
		f := strings.Split(l, ",")
		if len(f) != 4 || f[0] == "workload" {
			t.Fatalf("line %q is not one CSV row", l)
		}
		if _, err := strconv.ParseFloat(f[3], 64); err != nil {
			t.Errorf("line %q: speedup: %v", l, err)
		}
		if len(order) == 0 || order[len(order)-1] != f[0] {
			order = append(order, f[0])
		}
	}
	// 3 panels x (2 models x 2 resource counts + Oracle).
	if want := []string{"xlisp", "compress", "harmonic-mean"}; len(lines) != 1+3*5 || !slices.Equal(order, want) {
		t.Errorf("%d lines for panels %v, want %d for %v:\n%s", len(lines), order, 1+3*5, want, out)
	}
}

func TestParseInts(t *testing.T) {
	got, err := parseInts("8, 16,256")
	if err != nil || len(got) != 3 || got[0] != 8 || got[2] != 256 {
		t.Errorf("parseInts = %v, %v", got, err)
	}
	if got, err := parseInts("100,0"); err != nil || got[1] != 0 {
		t.Errorf("unlimited sentinel rejected: %v %v", got, err)
	}
	for _, bad := range []string{"", "x", "-4", ","} {
		if _, err := parseInts(bad); err == nil {
			t.Errorf("parseInts(%q) accepted", bad)
		}
	}
}

func TestParseModels(t *testing.T) {
	all, err := parseModels("all")
	if err != nil || len(all) != 7 {
		t.Fatalf("all -> %v, %v", all, err)
	}
	got, err := parseModels("dee-cd-mf, SP")
	if err != nil || len(got) != 2 {
		t.Fatalf("parseModels: %v, %v", got, err)
	}
	if got[0].String() != "DEE-CD-MF" || got[1].String() != "SP" {
		t.Errorf("parsed %v", got)
	}
	ref, err := parseModels("dee-pure,dee-profile,DEE-pure-CD-MF")
	if err != nil || ref[0].Strategy != dee.DEEPure || ref[1].Strategy != dee.DEEProfile || ref[2] != ref[0] {
		t.Errorf("reference strategies: %v, %v", ref, err)
	}
	_, err = parseModels("warp-drive")
	if err == nil || !strings.Contains(err.Error(), "unknown model") {
		t.Fatalf("bad model accepted: %v", err)
	}
	// The error names every model the CLI accepts, reference ones included.
	for _, m := range slices.Concat(ilpsim.PaperModels, ilpsim.ReferenceModels) {
		if !strings.Contains(err.Error(), m.String()) {
			t.Errorf("unknown-model error does not list %s: %v", m, err)
		}
	}
}

// TestObservabilityFlags exercises the shared telemetry flag block
// end to end: -version short-circuits, -metrics-out dumps a Prometheus
// snapshot with simulator series, -trace-out writes a loadable Chrome
// trace, and -log-level rejects garbage.
func TestObservabilityFlags(t *testing.T) {
	code, out, _ := run(t, "-version")
	if code != 0 || !strings.Contains(out, "deesim version") {
		t.Fatalf("-version: code %d, out %q", code, out)
	}

	dir := t.TempDir()
	mpath := filepath.Join(dir, "metrics.txt")
	tpath := filepath.Join(dir, "sweep.json")
	args := fastArgs("-metrics-out", mpath, "-trace-out", tpath,
		"-journal", filepath.Join(dir, "run.journal"))
	code, _, stderr := run(t, args...)
	if code != 0 {
		t.Fatalf("sweep failed: %s", stderr)
	}
	metrics, err := os.ReadFile(mpath)
	if err != nil {
		t.Fatalf("no metrics snapshot: %v", err)
	}
	for _, want := range []string{
		"# TYPE deesim_sim_cycles_total counter",
		"deesim_sim_instructions_issued_total",
		"deesim_superv_tasks_done_total",
	} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("metrics snapshot missing %q", want)
		}
	}
	trace, err := os.ReadFile(tpath)
	if err != nil {
		t.Fatalf("no trace file: %v", err)
	}
	var tj struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(trace, &tj); err != nil {
		t.Fatalf("trace not JSON: %v", err)
	}
	// One span per cell (2 inputs x 2 models x 2 ETs), plus builds.
	cells, builds := map[string]int{}, 0
	for _, ev := range tj.TraceEvents {
		switch {
		case ev.Ph == "X" && strings.HasPrefix(ev.Name, "cell "):
			cells[ev.Name]++
		case ev.Ph == "X" && strings.HasPrefix(ev.Name, "build "):
			builds++
		}
	}
	if len(cells) != 8 || builds < 2 {
		t.Errorf("trace has cell spans %v and %d build spans, want 8 cells once each and >= 2 builds", cells, builds)
	}
	for name, n := range cells {
		if n != 1 {
			t.Errorf("%s: %d spans, want 1", name, n)
		}
	}
	if _, err := obs.CheckTimeline(trace); err != nil {
		t.Errorf("trace fails CheckTimeline: %v", err)
	}

	code, _, stderr = run(t, "-log-level", "nonsense")
	if code == 0 || !strings.Contains(stderr, "nonsense") {
		t.Errorf("bad -log-level accepted: code %d, stderr %q", code, stderr)
	}
}

// TestTraceFileConcurrentWrites runs the -trace-out writer from several
// goroutines at once, as the first-signal flusher and the exit path
// may, while spans are still being recorded (run under -race). Every
// write must leave one whole, valid timeline at the path.
func TestTraceFileConcurrentWrites(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.json")
	tw := &traceFile{path: path, frags: obs.NewMemFragmentLog("deesim")}
	ctx := obs.WithFragments(obs.WithTraceContext(context.Background(), obs.NewTrace()), tw.frags)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				_, end := obs.StartSpan(ctx, "cell c"+strconv.Itoa(i), nil)
				end()
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if _, err := tw.write(); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	n, err := tw.write()
	if err != nil || n != 4*50 {
		t.Fatalf("final write: %d fragments, %v", n, err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := obs.CheckTimeline(raw); err != nil {
		t.Fatalf("trace file: %v", err)
	}
	if left, _ := filepath.Glob(path + ".*"); len(left) != 0 {
		t.Errorf("temp files left behind: %v", left)
	}
}

// TestLifecycle: a sweep past its -timeout exits with the deadline
// code, and on every path the -metrics-out snapshot is written and
// stderr is JSON log records only — progress, retry, resume hint and
// error alike.
func TestLifecycle(t *testing.T) {
	dir := t.TempDir()
	obstest.Lifecycle(t, realMain, []obstest.Case{
		{Name: "golden", Args: fastArgs("-journal", filepath.Join(dir, "ok.journal"),
			"-write-golden", filepath.Join(dir, "g.json")), Code: runx.ExitOK},
		{Name: "resume", Args: fastArgs("-resume", filepath.Join(dir, "ok.journal"),
			"-golden", filepath.Join(dir, "g.json")), Code: runx.ExitOK},
		{Name: "deadline", Args: []string{"-bench", "xlisp", "-max", "300000", "-timeout", "1ms",
			"-journal", filepath.Join(dir, "late.journal")}, Code: runx.ExitDeadline},
		{Name: "unknown model", Args: []string{"-models", "nope"}, Code: runx.ExitError},
	})
}

// TestResultsRegenerate regenerates every results/ file deesim writes and
// compares it byte for byte (not in short mode).
func TestResultsRegenerate(t *testing.T) { obstest.Results(t, "deesim", realMain) }
