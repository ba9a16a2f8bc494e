package experiments

import (
	"context"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"deesim/internal/bench"
	"deesim/internal/ilpsim"
	"deesim/internal/isa"
	"deesim/internal/memo"
	"deesim/internal/runx"
	"deesim/internal/superv"
)

// Build-ahead's contract (see buildAhead): a local sweep's cell that
// would wait on another cell's build of its input first builds the
// next unstarted input, never past Jobs inputs built or building; the
// sweep's bytes are a one-worker sweep's; a failed or cancelled
// build-ahead is discarded, leaving the input's own cell to build it
// and own the error; and nothing builds ahead with a memo, an Exec, one
// worker, or a deesimd worker's RunCell.

func aheads() int64 { return mInputBuildsAhead.Value() }

// gatedSweep is a one-workload sweep over synthetic inputs w/in0,
// w/in1, .... The first build of in0 is held until a build of in1
// starts — which, with in0 building, only a build-ahead can run — or
// until hold passes. Inputs in fail fail every build, retryably, and
// inputs in panics panic in every build.
type gatedSweep struct {
	ws     []bench.Workload
	cfg    Config
	hold   time.Duration
	fail   map[int]bool
	panics map[int]bool

	release chan struct{}
	once    sync.Once

	mu        sync.Mutex
	calls     []int          // builds per input
	held      bool           // in0's first build is being held
	aheadHeld bool           // in1's build started while in0's was held
	started   int            // inputs whose first build has started
	finished  int            // inputs whose cells have all merged
	maxLive   int            // most of started-finished seen as a build starts
	merged    map[string]int // merged cells per input
}

func newGatedSweep(inputs int, hold time.Duration) *gatedSweep {
	g := &gatedSweep{
		hold:    hold,
		fail:    map[int]bool{},
		panics:  map[int]bool{},
		release: make(chan struct{}),
		calls:   make([]int, inputs),
		merged:  map[string]int{},
		cfg:     Config{MaxInstrs: 5000, Resources: []int{8}, Models: []ilpsim.Model{ilpsim.ModelSP, ilpsim.ModelDEECDMF}},
	}
	w := bench.Workload{Name: "w"}
	for i := range inputs {
		w.Inputs = append(w.Inputs, bench.Input{
			Name:  "in" + strconv.Itoa(i),
			Build: func(int) (*isa.Program, error) { return g.build(i) },
		})
	}
	g.ws = []bench.Workload{w}
	return g
}

func (g *gatedSweep) build(i int) (*isa.Program, error) {
	g.mu.Lock()
	g.calls[i]++
	first := g.calls[i] == 1
	if first {
		g.started++
		g.maxLive = max(g.maxLive, g.started-g.finished)
	}
	if i == 1 && g.held {
		g.aheadHeld = true
	}
	hold := i == 0 && first
	g.held = g.held || hold
	g.mu.Unlock()
	if hold {
		select {
		case <-g.release:
		case <-time.After(g.hold):
		}
		g.mu.Lock()
		g.held = false
		g.mu.Unlock()
	}
	if i == 1 {
		g.once.Do(func() { close(g.release) })
	}
	if g.fail[i] {
		return nil, runx.Newf(runx.KindUnavailable, "test", "input %d unavailable", i)
	}
	if g.panics[i] {
		panic("input " + strconv.Itoa(i) + " is broken")
	}
	return bench.BuildSynthetic(bench.SyntheticConfig{Iterations: 300, BranchesPerIter: 2, Bias: 85, Seed: uint32(i + 1), Work: 2})
}

// onCell counts merged cells per input; an input whose cells have all
// merged is finished.
func (g *gatedSweep) onCell(key string, _ bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	in := key[:strings.IndexByte(key, '|')]
	if g.merged[in]++; g.merged[in] == len(g.cfg.Models)*len(g.cfg.Resources) {
		g.finished++
	}
}

// TestMatrixBuildsAheadWhileAnInputBuilds: with two workers and the
// first input's build held, the second worker builds the second input
// ahead instead of sleeping. Every input is still built exactly once,
// at most two inputs are ever built or building, and the bytes are the
// one-worker sweep's.
func TestMatrixBuildsAheadWhileAnInputBuilds(t *testing.T) {
	ref := newGatedSweep(4, 0)
	want, err := RunMatrixContext(context.Background(), ref.ws, ref.cfg, MatrixConfig{Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}

	g := newGatedSweep(4, 10*time.Second)
	b0, a0 := builds(), aheads()
	got, err := RunMatrixContext(context.Background(), g.ws, g.cfg, MatrixConfig{Jobs: 2, OnCell: g.onCell})
	if err != nil {
		t.Fatal(err)
	}
	if !g.aheadHeld {
		t.Error("in1 was not built while in0's build was held: the waiting worker slept")
	}
	if n := builds() - b0; n != 4 {
		t.Errorf("%d builds, want 4 (each input once)", n)
	}
	if n := aheads() - a0; n < 1 {
		t.Errorf("%d builds ahead, want at least 1", n)
	}
	if g.maxLive > 2 {
		t.Errorf("%d inputs built or building at once, want at most Jobs = 2", g.maxLive)
	}
	if a, b := mustJSON(t, got), mustJSON(t, want); a != b {
		t.Errorf("Jobs 2 results differ from Jobs 1:\n  %s\nwant\n  %s", a, b)
	}
}

// TestFailedBuildAheadIsDiscarded: a build-ahead that fails — with an
// error or a panic — does not fail the cell that ran it. The input
// stays unbuilt, and its own cell builds it, fails with the typed error
// keyed to that cell, and is retried under the sweep's policy as if no
// build-ahead had run.
func TestFailedBuildAheadIsDiscarded(t *testing.T) {
	for _, kind := range []runx.Kind{runx.KindUnavailable, runx.KindPanic} {
		g := newGatedSweep(4, 10*time.Second)
		if kind == runx.KindPanic {
			g.panics[1] = true
		} else {
			g.fail[1] = true
		}
		a0 := aheads()
		_, err := RunMatrixContext(context.Background(), g.ws, g.cfg, MatrixConfig{
			Jobs:   2,
			Retry:  superv.RetryPolicy{Attempts: 2, Backoff: time.Millisecond},
			OnCell: g.onCell,
		})
		if !g.aheadHeld || aheads()-a0 < 1 {
			t.Fatalf("%v: in1 was not built ahead while in0 built (aheadHeld %v, %d builds ahead)", kind, g.aheadHeld, aheads()-a0)
		}
		e, ok := runx.As(err)
		if !ok || e.Kind != kind {
			t.Fatalf("sweep error %v, want in1's typed %v error", err, kind)
		}
		if !strings.HasPrefix(e.Benchmark, "w/in1|") {
			t.Errorf("%v: error keyed to %q, want one of in1's own cells", kind, e.Benchmark)
		}
		if !strings.Contains(err.Error(), "failed after 2 attempt(s)") {
			t.Errorf("%v: error %q: the retry policy's two attempts did not both run", kind, err)
		}
		if n := g.merged["w/in0"]; n != 2 {
			t.Errorf("%v: %d of in0's cells merged, want 2: the failed build-ahead failed the cell that ran it", kind, n)
		}
		if g.calls[1] < 3 {
			t.Errorf("%v: in1 built %d times, want the build-ahead plus two attempts of its own cell", kind, g.calls[1])
		}
	}
}

// TestCancelledBuildAheadIsDiscarded: a build-ahead whose cell is
// cancelled leaves its input unbuilt and unclaimed, and the input's own
// cell then builds it.
func TestCancelledBuildAheadIsDiscarded(t *testing.T) {
	g := newGatedSweep(2, 0)
	cfg := g.cfg.withDefaults()
	in := g.ws[0].Inputs[1]
	task := MatrixTask{Workload: "w", Input: in.Name, Model: "SP", ET: 8}
	pool := NewInputPool(0)
	e := pool.pin(InputKey(cfg, task), "w/"+in.Name, in.Build, 1)
	b := &buildAhead{pool: pool, inputs: []*poolEntry{e}, limit: 2}
	b0, a0 := builds(), aheads()
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	b.next(canceled, cfg)
	if e.sim != nil || e.building != nil {
		t.Fatal("a cancelled build-ahead left its input built or claimed")
	}
	c, err := e.run(context.Background(), task, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if c.Insts == 0 {
		t.Error("the input's own cell ran on an empty simulator")
	}
	if nb, na := builds()-b0, aheads()-a0; nb != 2 || na != 1 {
		t.Errorf("%d builds, %d ahead; want 2 builds (the discarded one and the cell's), 1 ahead", nb, na)
	}
}

// TestNoBuildAheadOutsideLocalSweeps: with the first input's build held
// (briefly, since nothing releases it), no sweep with a memo, an Exec,
// or one worker builds ahead, and neither do two deesimd-style RunCell
// calls waiting on one input.
func TestNoBuildAheadOutsideLocalSweeps(t *testing.T) {
	const hold = 50 * time.Millisecond
	m, err := memo.New(memo.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]func(g *gatedSweep) MatrixConfig{
		"memo": func(*gatedSweep) MatrixConfig { return MatrixConfig{Jobs: 2, Memo: m} },
		"exec": func(g *gatedSweep) MatrixConfig {
			return MatrixConfig{Jobs: 2, Exec: func(ctx context.Context, t MatrixTask) (*CellResult, error) {
				return RunCell(ctx, g.ws, g.cfg, t)
			}}
		},
		"jobs1": func(*gatedSweep) MatrixConfig { return MatrixConfig{Jobs: 1} },
	}
	for name, mcfg := range cases {
		g := newGatedSweep(3, hold)
		a0 := aheads()
		if _, err := RunMatrixContext(context.Background(), g.ws, g.cfg, mcfg(g)); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if n := aheads() - a0; n != 0 {
			t.Errorf("%s: %d builds ahead, want none", name, n)
		}
	}

	g := newGatedSweep(3, hold)
	pool := NewInputPool(1)
	a0 := aheads()
	var wg sync.WaitGroup
	for _, model := range []string{"SP", "DEE-CD-MF"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := pool.RunCell(context.Background(), nil, g.ws, g.cfg, MatrixTask{Workload: "w", Input: "in0", Model: model, ET: 8}); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if n := aheads() - a0; n != 0 || g.calls[1] != 0 {
		t.Errorf("RunCell: %d builds ahead and %d builds of in1, want none", n, g.calls[1])
	}
}
