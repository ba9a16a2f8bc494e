package perf

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// minVsLegacy is the geomean speedup_vs_legacy floor: the lowest
// geomean of five back-to-back runs of this gate on a 2-CPU container,
// rounded down to 0.1.
const minVsLegacy = 2.2

// TestCoreSuiteAgainstBaseline is the core perf gate. With
// BENCH_CORE_OUT naming a file it measures the ILP core suite (every
// workload × model × ET cell, event scheduler against the legacy
// scanner in the same run) and the ET scaling of the SP/DEE/EE models
// on the event scheduler, prints both, writes them to that file, and
// gates them against the checked-in BENCH_core.json: no shared cell may
// lose more than 20% of its speedup_vs_legacy, the geomean must stay at
// least minVsLegacy, and no SP-family, DEE-CD or DEE-CD-MF model may
// cost more than twice as much at ET 256 as at ET 8 (they simulate
// about the same cycles at both, or fewer at ET 256). EE ratios are
// recorded, not gated.
// Without the variable it skips — the measurement takes a while.
//
//	BENCH_CORE_OUT=$PWD/suite.json go test -v -count=1 -run TestCoreSuiteAgainstBaseline ./internal/perf
func TestCoreSuiteAgainstBaseline(t *testing.T) {
	out := os.Getenv("BENCH_CORE_OUT")
	if out == "" {
		t.Skip("set BENCH_CORE_OUT to measure the core suite and gate it against BENCH_core.json")
	}
	suite, err := RunCore(context.Background(), CoreConfig{})
	if err != nil {
		t.Fatal(err)
	}
	suite.Benchstat(os.Stdout)
	suite.ScalingTable(os.Stdout)
	fmt.Printf("geomean speedup_vs_legacy %.2fx over %d cells\n", suite.GeomeanVsLegacy(), len(suite.Records))
	if err := suite.WriteFile(out); err != nil {
		t.Fatal(err)
	}
	base, err := ReadFile(filepath.Join("..", "..", "BENCH_core.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := Compare(base, suite, CompareOpts{MinVsLegacy: minVsLegacy}); err != nil {
		t.Fatal(err)
	}
}
