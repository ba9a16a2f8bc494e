package perf

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// TestCoreSuiteAgainstBaseline is the core perf gate. With
// BENCH_CORE_OUT naming a file it measures the ILP core suite (every
// workload × model × ET cell, event scheduler against the legacy
// scanner in the same run), prints it benchstat-style, writes it to
// that file, and gates it against the checked-in BENCH_core.json: no
// shared cell may lose more than 20% of its speedup_vs_legacy, and the
// geomean must stay at least 1.5×. Without the variable it skips — the
// measurement takes a while.
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
	fmt.Printf("geomean speedup_vs_legacy %.2fx over %d cells\n", suite.GeomeanVsLegacy(), len(suite.Records))
	if err := suite.WriteFile(out); err != nil {
		t.Fatal(err)
	}
	base, err := ReadFile(filepath.Join("..", "..", "BENCH_core.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := Compare(base, suite, CompareOpts{MinVsLegacy: 1.5}); err != nil {
		t.Fatal(err)
	}
}
