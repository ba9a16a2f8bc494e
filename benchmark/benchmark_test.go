package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark binary when
// a run starts its setup-probe and canary children.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && (os.Args[1] == "setup-probe" || os.Args[1] == "canary") {
		os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// TestSmoke runs every workload untraced and traced at smoke size and
// checks the output contract: every metric BENCHMARK.json names is
// emitted with its unit (and nothing else), every delivery verified,
// and the traced run wrote a valid Chrome-trace timeline. It makes no
// timing assertions.
func TestSmoke(t *testing.T) {
	spec, err := readBenchSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the benchmark runs %q", i, w.Name, workloads[i].name)
		}
	}
	dir := t.TempDir()
	for _, w := range workloads {
		for _, traced := range []int{0, 1} {
			traceOut := filepath.Join(dir, w.name+".trace.json")
			args := []string{"--workload", w.name, "--size", "smoke", "--seconds", "0.05",
				"--trace", strconv.Itoa(traced), "--state", dir, "--trace-out", traceOut}
			var stdout, stderr bytes.Buffer
			if code := realMain(args, &stdout, &stderr); code != 0 {
				t.Fatalf("%s trace=%d: exit %d\n%s%s", w.name, traced, code, stdout.String(), stderr.String())
			}
			rec, err := lastJSONLine(stdout.Bytes())
			if err != nil {
				t.Fatalf("%s trace=%d: %v", w.name, traced, err)
			}
			if !rec.Correct || rec.Failed != 0 || rec.Attempted < 1 {
				t.Errorf("%s trace=%d: correct=%v attempted=%d failed=%d", w.name, traced, rec.Correct, rec.Attempted, rec.Failed)
			}
			want := map[string]string{}
			if traced == 0 {
				for _, m := range spec.EndToEnd {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range spec.PerLayer {
					want[m.Name] = m.Unit
				}
				checkTimeline(t, traceOut)
			}
			for name, unit := range want {
				if got, ok := rec.Metrics[name]; !ok {
					t.Errorf("%s trace=%d: metric %s missing", w.name, traced, name)
				} else if got.Unit != unit {
					t.Errorf("%s trace=%d: metric %s unit %q, BENCHMARK.json says %q", w.name, traced, name, got.Unit, unit)
				}
			}
			for name := range rec.Metrics {
				if _, ok := want[name]; !ok {
					t.Errorf("%s trace=%d: metric %s is not in BENCHMARK.json", w.name, traced, name)
				}
			}
		}
	}
}

func checkTimeline(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string   `json:"name"`
			Ph   string   `json:"ph"`
			TS   *float64 `json:"ts"`
			Dur  float64  `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("%s: not Chrome-trace JSON: %v", path, err)
	}
	spans := 0
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "X":
			spans++
			if ev.TS == nil || *ev.TS < 0 || ev.Dur < 0 {
				t.Errorf("%s: bad span %+v", path, ev)
			}
		case "i", "M":
		default:
			t.Errorf("%s: unexpected event phase %q", path, ev.Ph)
		}
	}
	if spans == 0 {
		t.Errorf("%s: no spans", path)
	}
}

// TestQuartilesMatchPython pins compare's statistics to Python's
// statistics.quantiles(xs, n=4) and statistics.median, which the
// benchmark's acceptance checks use.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs          []float64
		q1, med, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 1, 3}, 1, 3, 5},
		{[]float64{4, 1, 3, 2}, 1.25, 2.5, 3.75},
	} {
		q1, q3 := quartiles(c.xs)
		if q1 != c.q1 || q3 != c.q3 || median(c.xs) != c.med {
			t.Errorf("%v: got q1=%v med=%v q3=%v, want %v %v %v", c.xs, q1, median(c.xs), q3, c.q1, c.med, c.q3)
		}
	}
}
