package perf

import (
	"context"
	"errors"
	"math"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"deesim/internal/ilpsim"
	"deesim/internal/runx"
	"deesim/internal/trace"
)

func sampleSuite() *Suite {
	return &Suite{
		Schema:   Schema,
		TraceCap: 1000,
		Records: []Record{
			{Name: "core/compress/SP/ET8", Iters: 3, NsPerOp: 1000, SimSpeedup: 2.5, SpeedupVsLegacy: 2.0},
			{Name: "core/xlisp/EE/ET64", Iters: 3, NsPerOp: 4000, SimSpeedup: 3.1, SpeedupVsLegacy: 8.0},
		},
	}
}

func TestSuiteRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sub", "BENCH_core.json")
	s := sampleSuite()
	if err := s.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Records) != 2 || got.Records[1] != s.Records[1] || got.TraceCap != 1000 {
		t.Fatalf("round trip drift: %+v", got)
	}
	if _, err := ReadFile(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("expected error for missing file")
	}
}

func TestReadFileRejectsWrongSchema(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.json")
	s := sampleSuite()
	s.Schema = "something-else"
	if err := s.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(path); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Fatalf("want schema error, got %v", err)
	}
}

func TestGeomeanVsLegacy(t *testing.T) {
	s := sampleSuite()
	if g := s.GeomeanVsLegacy(); math.Abs(g-4.0) > 1e-9 { // sqrt(2*8)
		t.Fatalf("geomean = %v, want 4", g)
	}
	if g := (&Suite{}).GeomeanVsLegacy(); g != 0 {
		t.Fatalf("empty geomean = %v, want 0", g)
	}
}

func TestComparePassesWhenEqual(t *testing.T) {
	if err := Compare(sampleSuite(), sampleSuite(), CompareOpts{MinVsLegacy: 1.5, StrictNs: true}); err != nil {
		t.Fatal(err)
	}
}

func TestCompareFlagsSpeedupLoss(t *testing.T) {
	cur := sampleSuite()
	cur.Records[0].SpeedupVsLegacy = 1.0 // half the baseline 2.0 — past the 20% gate
	err := Compare(sampleSuite(), cur, CompareOpts{})
	var re *runx.Error
	if !errors.As(err, &re) || re.Kind != runx.KindRegression {
		t.Fatalf("want KindRegression, got %v", err)
	}
	if !strings.Contains(err.Error(), "core/compress/SP/ET8") {
		t.Fatalf("regression should name the cell: %v", err)
	}
}

func TestCompareToleratesSmallLossAndIgnoresUnmatched(t *testing.T) {
	cur := sampleSuite()
	cur.Records[0].SpeedupVsLegacy = 1.7 // 15% loss: under the 20% gate
	cur.Records = append(cur.Records, Record{Name: "core/new/cell/ET1", NsPerOp: 1, SpeedupVsLegacy: 0.1})
	if err := Compare(sampleSuite(), cur, CompareOpts{}); err != nil {
		t.Fatal(err)
	}
}

func TestCompareStrictNs(t *testing.T) {
	cur := sampleSuite()
	cur.Records[0].NsPerOp = 1300 // +30%
	if err := Compare(sampleSuite(), cur, CompareOpts{}); err != nil {
		t.Fatalf("ns/op should not gate without StrictNs: %v", err)
	}
	if err := Compare(sampleSuite(), cur, CompareOpts{StrictNs: true}); err == nil {
		t.Fatal("want strict ns/op regression")
	}
}

func TestCompareMinVsLegacyFloor(t *testing.T) {
	cur := sampleSuite()
	cur.Records[0].SpeedupVsLegacy = 1.0
	cur.Records[1].SpeedupVsLegacy = 1.2
	// Within per-cell threshold of nothing (baseline cells regress, but
	// raise the threshold to pass that gate) — the geomean floor fires.
	err := Compare(sampleSuite(), cur, CompareOpts{Threshold: 0.99, MinVsLegacy: 1.5})
	if err == nil || !strings.Contains(err.Error(), "geomean") {
		t.Fatalf("want geomean floor failure, got %v", err)
	}
}

func TestCompareGatesETScaling(t *testing.T) {
	cur := sampleSuite()
	cur.ETScaling = []Scaling{
		{Name: "core/xlisp/SP", Model: "SP", LoET: 8, HiET: 256, Ratio: 2.5},
		{Name: "core/espresso/DEE-CD-MF", Model: "DEE-CD-MF", LoET: 8, HiET: 256, Ratio: 8.4},
		{Name: "core/xlisp/EE", Model: "EE", LoET: 8, HiET: 256, Ratio: 9},
		{Name: "core/cc1/SP/PEs4", Model: "SP", PEs: 4, LoET: 8, HiET: 256, Ratio: 2.1},
	}
	err := Compare(sampleSuite(), cur, CompareOpts{})
	for _, name := range []string{"core/xlisp/SP", "core/espresso/DEE-CD-MF", "core/cc1/SP/PEs4"} {
		if err == nil || !strings.Contains(err.Error(), name) {
			t.Fatalf("want ET-scaling failure naming %s, got %v", name, err)
		}
	}
	if strings.Contains(err.Error(), "core/xlisp/EE") {
		t.Fatalf("ungated model EE was gated: %v", err)
	}
	cur.ETScaling[0].Ratio = 1.9
	cur.ETScaling[1].Ratio = 1.4
	cur.ETScaling[3].Ratio = 1.1
	if err := Compare(sampleSuite(), cur, CompareOpts{}); err != nil {
		t.Fatalf("ratio under the bound failed: %v", err)
	}
}

func TestBenchstatOutput(t *testing.T) {
	var b strings.Builder
	sampleSuite().Benchstat(&b)
	out := b.String()
	for _, want := range []string{"Benchmarkcompress_SP_ET8", "ns/op", "sim_speedup", "speedup_vs_legacy"} {
		if !strings.Contains(out, want) {
			t.Fatalf("benchstat output missing %q:\n%s", want, out)
		}
	}
}

// TestRunCoreSmoke measures one tiny workload end to end, with the
// legacy side and the ET-scaling cells, and checks the suite holds
// plausible records. The legacy loop is internal/ilpsim test code, so a
// stand-in runner (the event scheduler itself) takes its place here;
// TestRunCoreLegacySmoke there runs the real one.
func TestRunCoreSmoke(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	suite, err := RunCore(ctx, CoreConfig{
		Workloads: []string{"compress"},
		ETs:       []int{8},
		TraceCap:  4_000,
		MinTime:   5 * time.Millisecond,
		MinIters:  2,
	}, func(_ *trace.Trace, s *ilpsim.Sim) func(context.Context, ilpsim.Model, int) (ilpsim.Result, error) {
		return s.RunContext
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(suite.Records) != 3 { // three default models
		t.Fatalf("got %d records, want 3", len(suite.Records))
	}
	for _, r := range suite.Records {
		if r.NsPerOp <= 0 || r.Iters < 2 || r.SimSpeedup <= 0 || r.SpeedupVsLegacy <= 0 {
			t.Fatalf("implausible record: %+v", r)
		}
		if !strings.HasPrefix(r.Name, "core/compress/") {
			t.Fatalf("bad record name %q", r.Name)
		}
	}
	if want := len(scalingModels) + len(cappedScalingModels); len(suite.ETScaling) != want {
		t.Fatalf("got %d scaling cells, want %d", len(suite.ETScaling), want)
	}
	for i, c := range suite.ETScaling {
		m, name, pes := "", "", 0
		if i < len(scalingModels) {
			m = scalingModels[i].String()
			name = "core/compress/" + m
		} else {
			m = cappedScalingModels[i-len(scalingModels)].String()
			name, pes = "core/compress/"+m+"/PEs4", scalingPEs
		}
		if c.Name != name || c.Model != m || c.PEs != pes || c.LoET != scalingLoET || c.HiET != scalingHiET ||
			c.Rounds != scalingRounds || c.LoNs <= 0 || c.HiNs <= 0 || c.Ratio <= 0 {
			t.Fatalf("implausible scaling cell: %+v", c)
		}
	}
}
