// Benchmark harness regenerating the paper's evaluation. Each benchmark
// corresponds to a figure, table, or in-text number; the regenerated
// quantity is attached as a custom metric:
//
//	BenchmarkFigure1Trees          Figure 1 tree construction (p=0.7, ET=6)
//	BenchmarkFigure2StaticTree     Figure 2 static tree (p=0.9, ET=34)
//	BenchmarkTreeGeometry          §3.1 closed-form sweep
//	BenchmarkFig5                  Figure 5 panels: speedup/* metrics per
//	                               workload × model × resources
//	BenchmarkOracle                per-panel Oracle speedups
//	BenchmarkET100                 §5.3: DEE-CD-MF vs SP vs EE at ET=100
//	BenchmarkDEE8vsEE256           §5.3: DEE-CD-MF@8 ≈ EE@256
//	BenchmarkRootResolution        §5.3: mispredicts resolving at tree root
//	BenchmarkLevo                  §4: Levo IPC per workload
//	Benchmark<subsystem>           substrate micro-benchmarks
//
// Traces are capped (BenchTraceCap) so the full suite runs in minutes;
// cmd/deesim regenerates the figures at full length.
package deesim_test

import (
	"fmt"
	"sync"
	"testing"

	"deesim/internal/asm"
	"deesim/internal/bench"
	"deesim/internal/cache"
	"deesim/internal/cfg"
	"deesim/internal/cpu"
	"deesim/internal/dee"
	"deesim/internal/ilpsim"
	"deesim/internal/isa"
	"deesim/internal/levo"
	"deesim/internal/predictor"
	"deesim/internal/trace"
	"deesim/internal/unroll"
)

// BenchTraceCap bounds the dynamic instruction stream per workload in
// the benchmark harness.
const BenchTraceCap = 60_000

var (
	simMu    sync.Mutex
	simCache = map[string]*ilpsim.Sim{}
	trCache  = map[string]*trace.Trace{}
)

// benchTrace returns the capped trace for one workload, recorded on
// first use. Construction is lazy and per-workload: a benchmark that
// touches only compress no longer pays for tracing and preparing the
// other four workloads (the old sims() built all five up front under a
// single sync.Once).
func benchTrace(b *testing.B, name string) *trace.Trace {
	b.Helper()
	simMu.Lock()
	defer simMu.Unlock()
	if tr, ok := trCache[name]; ok {
		return tr
	}
	w, err := bench.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	prog, err := w.Inputs[0].Build(1)
	if err != nil {
		b.Fatal(err)
	}
	tr, err := trace.Record(prog, BenchTraceCap)
	if err != nil {
		b.Fatal(err)
	}
	trCache[name] = tr
	return tr
}

// sim returns the prepared simulator for one workload, built lazily on
// first use and shared (a Sim is safe for concurrent runs).
func sim(b *testing.B, name string) *ilpsim.Sim {
	b.Helper()
	tr := benchTrace(b, name)
	simMu.Lock()
	defer simMu.Unlock()
	if s, ok := simCache[name]; ok {
		return s
	}
	s := ilpsim.MustNew(tr, predictor.NewTwoBit(), ilpsim.DefaultOptions())
	simCache[name] = s
	return s
}

// --- Figure 1 & 2: analytic trees ---

func BenchmarkFigure1Trees(b *testing.B) {
	var total float64
	for i := 0; i < b.N; i++ {
		sp := dee.BuildSP(0.7, 6)
		ee := dee.BuildEE(0.7, 6)
		d := dee.BuildGreedy(0.7, 6)
		total = sp.TotalCP() + ee.TotalCP() + d.TotalCP()
	}
	b.ReportMetric(total, "sumPtot")
}

func BenchmarkFigure2StaticTree(b *testing.B) {
	var l, h int
	for i := 0; i < b.N; i++ {
		l, h = dee.StaticShape(0.90, 34)
		_ = dee.BuildStatic(0.90, 34)
	}
	b.ReportMetric(float64(l), "mainline_l")
	b.ReportMetric(float64(h), "hDEE")
}

func BenchmarkTreeGeometry(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, p := range []float64{0.8, 0.85, 0.9, 0.9053, 0.95} {
			for et := 8; et <= 256; et *= 2 {
				dee.StaticShape(p, et)
			}
		}
	}
}

// --- Figure 5: the main result ---

func BenchmarkFig5(b *testing.B) {
	for _, w := range bench.All() {
		s := sim(b, w.Name)
		for _, m := range ilpsim.PaperModels {
			for _, et := range []int{8, 64, 256} {
				name := fmt.Sprintf("%s/%s/ET%d", w.Name, m, et)
				b.Run(name, func(b *testing.B) {
					var r ilpsim.Result
					var err error
					for i := 0; i < b.N; i++ {
						r, err = s.Run(m, et)
						if err != nil {
							b.Fatal(err)
						}
					}
					b.ReportMetric(r.Speedup, "speedup")
				})
			}
		}
	}
}

func BenchmarkOracle(b *testing.B) {
	for _, w := range bench.All() {
		s := sim(b, w.Name)
		b.Run(w.Name, func(b *testing.B) {
			var r ilpsim.Result
			for i := 0; i < b.N; i++ {
				r = s.Oracle()
			}
			b.ReportMetric(r.Speedup, "oracle_speedup")
		})
	}
}

// BenchmarkET100 regenerates the §5.3 headline comparison: at the Levo
// target of ET = 100 branch paths, DEE-CD-MF versus plain branch
// prediction (paper: ×5.8) and versus eager execution (paper: ×4.0).
func BenchmarkET100(b *testing.B) {
	for _, w := range bench.All() {
		s := sim(b, w.Name)
		b.Run(w.Name, func(b *testing.B) {
			var deeS, spS, eeS float64
			for i := 0; i < b.N; i++ {
				rd, err := s.Run(ilpsim.ModelDEECDMF, 100)
				if err != nil {
					b.Fatal(err)
				}
				rs, err := s.Run(ilpsim.ModelSP, 100)
				if err != nil {
					b.Fatal(err)
				}
				re, err := s.Run(ilpsim.ModelEE, 100)
				if err != nil {
					b.Fatal(err)
				}
				deeS, spS, eeS = rd.Speedup, rs.Speedup, re.Speedup
			}
			b.ReportMetric(deeS, "DEE-CD-MF")
			b.ReportMetric(deeS/spS, "vs_SP")
			b.ReportMetric(deeS/eeS, "vs_EE")
			b.ReportMetric(deeS/s.Oracle().Speedup, "of_oracle")
		})
	}
}

// BenchmarkDEE8vsEE256 regenerates §5.3's "DEE-CD-MF with 8 branch path
// resources has the same performance as EE with 256".
func BenchmarkDEE8vsEE256(b *testing.B) {
	for _, w := range bench.All() {
		s := sim(b, w.Name)
		b.Run(w.Name, func(b *testing.B) {
			var d8, e256 float64
			for i := 0; i < b.N; i++ {
				rd, err := s.Run(ilpsim.ModelDEECDMF, 8)
				if err != nil {
					b.Fatal(err)
				}
				re, err := s.Run(ilpsim.ModelEE, 256)
				if err != nil {
					b.Fatal(err)
				}
				d8, e256 = rd.Speedup, re.Speedup
			}
			b.ReportMetric(d8, "DEE-CD-MF_8")
			b.ReportMetric(e256, "EE_256")
			b.ReportMetric(d8/e256, "ratio")
		})
	}
}

// BenchmarkRootResolution regenerates the §5.3 statistic that 70–80% of
// mispredict resolutions occur at the root of the tree.
func BenchmarkRootResolution(b *testing.B) {
	for _, w := range bench.All() {
		s := sim(b, w.Name)
		b.Run(w.Name, func(b *testing.B) {
			var rate float64
			for i := 0; i < b.N; i++ {
				r, err := s.Run(ilpsim.ModelDEECDMF, 100)
				if err != nil {
					b.Fatal(err)
				}
				rate = r.RootResolutionRate()
			}
			b.ReportMetric(100*rate, "root_pct")
		})
	}
}

// --- §4: Levo ---

func BenchmarkLevo(b *testing.B) {
	for _, w := range bench.All() {
		prog, err := w.Inputs[0].Build(1)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(w.Name, func(b *testing.B) {
			cfg := levo.DefaultConfig()
			cfg.MaxInstrs = BenchTraceCap
			var r levo.Result
			for i := 0; i < b.N; i++ {
				m, err := levo.New(prog, cfg)
				if err != nil {
					b.Fatal(err)
				}
				r, err = m.Run()
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(r.IPC, "IPC")
			b.ReportMetric(float64(r.ValueMismatches), "mismatches")
		})
	}
}

// --- substrate micro-benchmarks ---

func BenchmarkAssembler(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.BuildCompress(1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFunctionalSim(b *testing.B) {
	prog, err := bench.BuildCompress(1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var insts uint64
	for i := 0; i < b.N; i++ {
		c := cpu.New(prog)
		if err := c.Run(0); err != nil {
			b.Fatal(err)
		}
		insts = c.Steps()
	}
	b.ReportMetric(float64(insts)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Minst/s")
}

func BenchmarkTraceRecord(b *testing.B) {
	prog, err := bench.BuildCompress(1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := trace.Record(prog, BenchTraceCap); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDataDeps(b *testing.B) {
	tr := benchTrace(b, "compress")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.DataDeps(false)
	}
}

func BenchmarkPredictor2Bit(b *testing.B) {
	tr := benchTrace(b, "compress")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		predictor.Accuracy(tr, predictor.NewTwoBit())
	}
}

func BenchmarkPredictorPAp(b *testing.B) {
	tr := benchTrace(b, "compress")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		predictor.Accuracy(tr, predictor.NewPAp(4))
	}
}

func BenchmarkPostdominators(b *testing.B) {
	prog, err := bench.BuildCC1(1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Build(prog)
	}
}

func BenchmarkGreedyTree(b *testing.B) {
	for i := 0; i < b.N; i++ {
		dee.BuildGreedy(0.9053, 1000)
	}
}

func BenchmarkAssembleMicro(b *testing.B) {
	src := `
    li  $t0, 100
loop:
    addi $t0, $t0, -1
    bgtz $t0, loop
    halt
`
	for i := 0; i < b.N; i++ {
		if _, err := asm.Assemble(src); err != nil {
			b.Fatal(err)
		}
	}
}

// --- extension benchmarks ---

// BenchmarkTreeConstructionAblation reports the §3 tree-construction
// comparison: static heuristic vs Theorem-1 greedy vs the dynamic
// per-branch "theoretically perfect" DEE.
func BenchmarkTreeConstructionAblation(b *testing.B) {
	s := sim(b, "cc1")
	models := []struct {
		name string
		m    ilpsim.Model
	}{
		{"static", ilpsim.ModelDEECDMF},
		{"greedy", ilpsim.Model{Strategy: dee.DEEPure, CDMode: ilpsim.CDMF}},
		{"profile", ilpsim.Model{Strategy: dee.DEEProfile, CDMode: ilpsim.CDMF}},
	}
	for _, mm := range models {
		b.Run(mm.name, func(b *testing.B) {
			var r ilpsim.Result
			var err error
			for i := 0; i < b.N; i++ {
				r, err = s.Run(mm.m, 128)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(r.Speedup, "speedup")
		})
	}
}

// BenchmarkUnrollFilter measures the §4.2 loop-unrolling filter itself
// and reports its effect on Levo pass counts for compress.
func BenchmarkUnrollFilter(b *testing.B) {
	prog, err := bench.BuildCompress(1)
	if err != nil {
		b.Fatal(err)
	}
	var rep unroll.Report
	var q *isa.Program
	for i := 0; i < b.N; i++ {
		q, rep, err = unroll.Apply(prog, unroll.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rep.LoopsUnrolled), "loops")
	b.ReportMetric(float64(rep.SizeAfter-rep.SizeBefore), "added_insts")
	_ = q
}

// BenchmarkCacheAccess measures the data-cache substrate.
func BenchmarkCacheAccess(b *testing.B) {
	c := cache.MustNew(cache.Default16K())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(uint32(i*64) & 0xFFFFF)
	}
	_, _, rate := c.Stats()
	b.ReportMetric(rate, "missRate")
}

// BenchmarkLevoUnrolled reports the Levo pass-count effect of the
// unrolling filter (§4.2: capture more work per IQ pass).
func BenchmarkLevoUnrolled(b *testing.B) {
	prog, err := bench.BuildCompress(1)
	if err != nil {
		b.Fatal(err)
	}
	q, _, err := unroll.Apply(prog, unroll.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	cfg := levo.DefaultConfig()
	cfg.MaxInstrs = BenchTraceCap
	var plain, unrolled levo.Result
	for i := 0; i < b.N; i++ {
		m1, err := levo.New(prog, cfg)
		if err != nil {
			b.Fatal(err)
		}
		plain, err = m1.Run()
		if err != nil {
			b.Fatal(err)
		}
		m2, err := levo.New(q, cfg)
		if err != nil {
			b.Fatal(err)
		}
		unrolled, err = m2.Run()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(plain.Passes), "passes_plain")
	b.ReportMetric(float64(unrolled.Passes), "passes_unrolled")
	b.ReportMetric(unrolled.IPC, "IPC_unrolled")
}
