package ilpsim_test

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"deesim/internal/ilpsim"
	"deesim/internal/perf"
)

// minVsLegacy is the geomean speedup_vs_legacy floor: the lowest
// geomean of five back-to-back runs of this gate on a 2-CPU container,
// rounded down to 0.1.
const minVsLegacy = 2.2

// TestCoreSuiteAgainstBaseline is the core perf gate. With
// BENCH_CORE_OUT naming a file it measures the ILP core suite (every
// workload × model × ET cell, RunContext against the legacy scanner in
// the same run) and the ET scaling of the SP/DEE/EE models, without a
// PEs cap (the forward pass) and, for SP and DEE-CD-MF, with a cap of 4
// (the event kernel), prints both, writes them to that file, and gates
// them against the checked-in BENCH_core.json: no shared cell may lose
// more than 20% of its speedup_vs_legacy, the geomean must stay at
// least minVsLegacy, and no SP-family, DEE-CD or DEE-CD-MF model may
// cost more than twice as much at ET 256 as at ET 8, capped or not
// (they simulate about the same cycles at both, or fewer at ET 256).
// EE ratios are recorded, not gated. It lives here because the legacy
// scanner is this package's test code (legacy_test.go). Without the
// variable it skips — the measurement takes a while.
//
//	BENCH_CORE_OUT=$PWD/suite.json go test -v -count=1 -run TestCoreSuiteAgainstBaseline ./internal/ilpsim
func TestCoreSuiteAgainstBaseline(t *testing.T) {
	out := os.Getenv("BENCH_CORE_OUT")
	if out == "" {
		t.Skip("set BENCH_CORE_OUT to measure the core suite and gate it against BENCH_core.json")
	}
	suite, err := perf.RunCore(context.Background(), perf.CoreConfig{}, ilpsim.LegacyRunner)
	if err != nil {
		t.Fatal(err)
	}
	suite.Benchstat(os.Stdout)
	suite.ScalingTable(os.Stdout)
	fmt.Printf("geomean speedup_vs_legacy %.2fx over %d cells\n", suite.GeomeanVsLegacy(), len(suite.Records))
	if err := suite.WriteFile(out); err != nil {
		t.Fatal(err)
	}
	base, err := perf.ReadFile(filepath.Join("..", "..", "BENCH_core.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := perf.Compare(base, suite, perf.CompareOpts{MinVsLegacy: minVsLegacy}); err != nil {
		t.Fatal(err)
	}
}

// TestRunCoreLegacySmoke measures one tiny workload with the real
// legacy runner and checks every record carries a speedup_vs_legacy
// (perf's TestRunCoreSmoke runs a stand-in).
func TestRunCoreLegacySmoke(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	suite, err := perf.RunCore(ctx, perf.CoreConfig{
		Workloads: []string{"compress"},
		ETs:       []int{8},
		TraceCap:  4_000,
		MinTime:   5 * time.Millisecond,
		MinIters:  2,
	}, ilpsim.LegacyRunner)
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
	if g := suite.GeomeanVsLegacy(); g <= 0 {
		t.Fatalf("geomean speedup_vs_legacy %v, want positive", g)
	}
}
