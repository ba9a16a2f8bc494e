// Command benchmark is deesim's end-to-end benchmark. It drives sweep
// workloads through two ways users run sweeps — the journaled deesim
// CLI path, and a deesim-coord fleet with two deesimd workers
// in-process over loopback — verifies every delivered result, and
// prints the end-to-end metrics. With --trace 1 it instead records spans
// around every layer boundary it calls through, writes a
// Perfetto-loadable timeline, and prints the per-layer metrics.
//
// Usage (from the repository root; run.sh builds this package first):
//
//	bash benchmark/run.sh --workload fleet-rebuild --seed 1 --seconds 50 --trace 0
//	bash benchmark/run.sh --workload all --seed 1 --out runs/s1        # one child per workload
//	bash benchmark/run.sh compare runs/a*.json -- runs/b*.json
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit code is 0 only when
// every delivered result verified.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"time"
)

// watchdog bounds one workload run: whatever hangs, the process exits
// non-zero well inside a 180-second budget per run.
const watchdog = 170 * time.Second

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareMain(args[1:], stdout, stderr)
	}
	// canary is the child a timed load phase starts; it is not for users.
	if len(args) > 0 && args[0] == "canary" {
		if err := canaryMain(os.Stdin, stdout); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
		return 0
	}
	// setup-probe is the child measureSetup starts; it is not for users.
	probe := len(args) > 0 && args[0] == "setup-probe"
	if probe {
		args = args[1:]
	}
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "all", "workload name, or \"all\" for every workload in its own child process")
	fs.Uint64Var(&o.seed, "seed", 1, "input seed (1 is the default, 2 is held out for validating claims)")
	fs.Float64Var(&o.seconds, "seconds", 50, "length of the timed load phase in seconds")
	fs.IntVar(&o.trace, "trace", 0, "1 records layer spans and prints per-layer metrics instead of end-to-end ones")
	fs.StringVar(&o.size, "size", "full", "input size: full, or smoke for a seconds-long check")
	fs.StringVar(&o.out, "out", "", "also write the run record (metrics with sample counts) to this JSON file")
	fs.StringVar(&o.traceOut, "trace-out", "", "timeline file for --trace 1 (default .bench_build/trace-<workload>-seed<N>.json)")
	fs.StringVar(&o.stateRoot, "state", ".bench_build", "directory for the systems' state; each run uses and removes a fresh subdirectory")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if o.trace != 0 && o.trace != 1 {
		fmt.Fprintln(stderr, "benchmark: --trace must be 0 or 1")
		return 2
	}
	if o.size != "full" && o.size != "smoke" {
		fmt.Fprintf(stderr, "benchmark: unknown --size %q (want full or smoke)\n", o.size)
		return 2
	}
	if o.workload == "all" && !probe {
		return runAll(o, args, stdout, stderr)
	}
	w, ok := workloadByName(o.workload)
	if !ok {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q (want one of %v or all)\n", o.workload, workloadNames())
		return 2
	}
	if probe {
		if err := setupProbeMain(context.Background(), w, o, stdout); err != nil {
			fmt.Fprintf(stderr, "benchmark: setup probe %s: %v\n", o.workload, err)
			return 1
		}
		return 0
	}
	timer := time.AfterFunc(watchdog, func() {
		fmt.Fprintf(stderr, "benchmark: %s did not finish within %s\n", o.workload, watchdog)
		os.Exit(3)
	})
	defer timer.Stop()

	rec, err := runWorkload(context.Background(), w, o, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", o.workload, err)
		return 1
	}
	printRecord(stdout, rec)
	if o.out != "" {
		if err := writeJSONFile(o.out, rec); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
	}
	if !rec.Correct {
		return 1
	}
	return 0
}

// runAll runs every workload in a fresh child process of this binary,
// so peak RSS and process-wide counters never leak between workloads,
// and prints a combined record whose metric names are prefixed with the
// workload.
func runAll(o options, args []string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	all := record{Correct: true, Metrics: map[string]metric{}}
	code := 0
	for _, w := range workloads {
		child := append(append([]string(nil), args...), "--workload", w.name)
		if o.out != "" {
			child = append(child, "--out", o.out+"."+w.name+".json")
		}
		var buf bytes.Buffer
		cmd := exec.Command(self, child...)
		cmd.Stdout = io.MultiWriter(stdout, &buf)
		cmd.Stderr = stderr
		runErr := cmd.Run()
		res, perr := lastJSONLine(buf.Bytes())
		if runErr != nil || perr != nil {
			fmt.Fprintf(stderr, "benchmark: workload %s failed: %v\n", w.name, errors.Join(runErr, perr))
			all.Correct = false
			code = 1
			continue
		}
		all.Correct = all.Correct && res.Correct
		all.Attempted += res.Attempted
		all.Failed += res.Failed
		for name, m := range res.Metrics {
			all.Metrics[w.name+"."+name] = metric{Value: m.Value, Unit: m.Unit}
		}
	}
	line, _ := json.Marshal(all.final())
	fmt.Fprintln(stdout, string(line))
	if !all.Correct {
		code = 1
	}
	return code
}

// printRecord prints one human-readable line per metric (name, value,
// unit, sample count), then the final JSON result line.
func printRecord(w io.Writer, rec *record) {
	names := make([]string, 0, len(rec.Metrics))
	for n := range rec.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "workload %s seed %d trace %d: %d sweeps attempted, %d failed, correct=%v\n",
		rec.Workload, rec.Seed, rec.Trace, rec.Attempted, rec.Failed, rec.Correct)
	for _, n := range names {
		m := rec.Metrics[n]
		fmt.Fprintf(w, "  %-40s %14s %-8s n=%d\n", n, strconv.FormatFloat(m.Value, 'g', 6, 64), m.Unit, m.N)
	}
	raw := make([]string, 0, len(rec.Raw))
	for n := range rec.Raw {
		raw = append(raw, n)
	}
	sort.Strings(raw)
	for _, n := range raw {
		m := rec.Raw[n]
		fmt.Fprintf(w, "  %-40s %14s %-8s n=%d\n", "raw."+n, strconv.FormatFloat(m.Value, 'g', 6, 64), m.Unit, m.N)
	}
	line, _ := json.Marshal(rec.final())
	fmt.Fprintln(w, string(line))
}

// lastJSONLine parses the final non-empty line of a run's output.
func lastJSONLine(out []byte) (*record, error) {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		if line := bytes.TrimSpace(sc.Bytes()); len(line) > 0 {
			last = append(last[:0], line...)
		}
	}
	var rec record
	if err := json.Unmarshal(last, &rec); err != nil {
		return nil, fmt.Errorf("parse result line: %w", err)
	}
	return &rec, nil
}

func writeJSONFile(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
