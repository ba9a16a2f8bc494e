package experiments

import (
	"context"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"deesim/internal/bench"
	"deesim/internal/cache"
	"deesim/internal/ilpsim"
	"deesim/internal/isa"
	"deesim/internal/runx"
	"deesim/internal/superv"
)

// The input pool's contract: a pooled entry gives cells exactly the
// bytes a fresh build would, entries are shared only between cells
// whose trace and prepared simulator agree, a retryable run error on a
// private entry evicts the prepared simulator, and the idle cap is
// enforced before a new build starts.

// builds and reuses read the pool's counters.
func builds() int64 { return mInputBuilds.Value() }
func reuses() int64 { return mInputReuses.Value() }

// TestInputPoolShuffledCellsMatchFresh: every cell of the matrix, run
// concurrently and in shuffled order on pooled entries, returns the
// CellResult JSON a fresh RunCell returns, with one build per input.
func TestInputPoolShuffledCellsMatchFresh(t *testing.T) {
	cfg := matrixTestConfig()
	ws := matrixTestWorkloads(t)
	tasks := MatrixTasks(ws, cfg)
	want := make(map[MatrixTask]string, len(tasks))
	inputs := map[string]bool{}
	for _, mt := range tasks {
		c, err := RunCell(context.Background(), ws, cfg, mt)
		if err != nil {
			t.Fatal(err)
		}
		want[mt] = mustJSON(t, c)
		inputs[mt.Workload+"/"+mt.Input] = true
	}

	rand.New(rand.NewSource(1)).Shuffle(len(tasks), func(i, j int) { tasks[i], tasks[j] = tasks[j], tasks[i] })
	pool := NewInputPool(len(inputs))
	b0, r0 := builds(), reuses()
	var wg sync.WaitGroup
	next := make(chan MatrixTask)
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for mt := range next {
				c, err := pool.RunCell(context.Background(), nil, ws, cfg, mt)
				if err != nil {
					t.Error(err)
					continue
				}
				if got := mustJSON(t, c); got != want[mt] {
					t.Errorf("%s: pooled %s, fresh %s", mt.Key(), got, want[mt])
				}
			}
		}()
	}
	for _, mt := range tasks {
		next <- mt
	}
	close(next)
	wg.Wait()
	if got := builds() - b0; got != int64(len(inputs)) {
		t.Errorf("pool built %d inputs, want %d (one per input)", got, len(inputs))
	}
	if got := reuses() - r0; got != int64(len(tasks)-len(inputs)) {
		t.Errorf("pool reused entries %d times, want %d", got, len(tasks)-len(inputs))
	}
}

// TestInputKeySeparatesTraceConfig: specs that differ only in max,
// scale, predictor or options get distinct pool entries; the model and
// ET a cell picks do not.
func TestInputKeySeparatesTraceConfig(t *testing.T) {
	task := paperTask()
	base := InputKey(Config{}, task)
	variants := map[string]string{
		"max":   InputKey(Config{MaxInstrs: 1000}, task),
		"scale": InputKey(Config{Scale: 2}, task),
		"pred":  InputKey(Config{Predictor: "taken"}, task),
		"opts":  InputKey(Config{Opts: ilpsim.Options{Penalty: 3}}, task),
	}
	pool := NewInputPool(0)
	e0 := pool.pin(base, "base", nil, 1)
	for what, k := range variants {
		if k == base {
			t.Errorf("changing %s kept the input key %s", what, k)
		}
		if e := pool.pin(k, what, nil, 1); e == e0 {
			t.Errorf("changing %s shared the base entry", what)
		}
	}
	other := task
	other.Model, other.ET = "EE", 8
	if k := InputKey(Config{}, other); k != base {
		t.Errorf("model and ET changed the input key:\n  %s\n  %s", base, k)
	}
	if e := pool.pin(InputKey(Config{}, other), "other", nil, 1); e != e0 {
		t.Error("a different model and ET on the same input got a separate entry")
	}
}

// fixedMem is an ilpsim.MemSystem with a constant latency.
type fixedMem struct{}

func (fixedMem) Access(uint32) bool               { return true }
func (fixedMem) Latency(uint32) int               { return 2 }
func (fixedMem) Stats() (uint64, uint64, float64) { return 0, 0, 0 }

// TestInputPoolBypassedForCacheAndMem: an input whose options carry a
// data cache or memory system is never shared — every cell gets a
// private entry and builds it.
func TestInputPoolBypassedForCacheAndMem(t *testing.T) {
	ws := matrixTestWorkloads(t)
	task := MatrixTask{Workload: "xlisp", Input: ws[0].Inputs[0].Name, Model: "SP", ET: 8}
	withCache := matrixTestConfig()
	withCache.Opts = ilpsim.DefaultOptions()
	withCache.Opts.Cache = &cache.Config{SizeBytes: 4096, LineBytes: 32, Ways: 2, HitLatency: 1, MissLatency: 10}
	withMem := matrixTestConfig()
	withMem.Opts = ilpsim.DefaultOptions()
	withMem.Opts.Mem = fixedMem{}
	for name, cfg := range map[string]Config{"cache": withCache, "mem": withMem} {
		if k := InputKey(cfg, task); k != "" {
			t.Errorf("%s: input key %q, want empty (unshareable)", name, k)
		}
		pool := NewInputPool(4)
		b0 := builds()
		for range 2 {
			if _, err := pool.RunCell(context.Background(), nil, ws, cfg, task); err != nil {
				t.Fatal(err)
			}
		}
		if got := builds() - b0; got != 2 {
			t.Errorf("%s: %d builds for two cells, want 2 (no sharing)", name, got)
		}
		if len(pool.entries) != 0 {
			t.Errorf("%s: pool kept %d entries, want none", name, len(pool.entries))
		}
	}
}

// flakyMem is a memory system whose first preparation hands every load
// a latency far past the deadlock limit, as an injected fault might;
// every later preparation sees fixedMem's latency.
type flakyMem struct{ prepared atomic.Int32 }

func (m *flakyMem) Access(uint32) bool { return true }
func (m *flakyMem) Latency(uint32) int {
	if m.prepared.Load() == 0 {
		return 1 << 20
	}
	return fixedMem{}.Latency(0)
}
func (m *flakyMem) Stats() (uint64, uint64, float64) {
	m.prepared.Add(1) // called once, at the end of each preparation
	return 0, 0, 0
}

// TestInputPoolRetryableErrorEvicts: a cell whose run on a private
// entry fails retryably — here a deadlock baked in by a faulty memory
// system — drops the prepared simulator, so the retry rebuilds it and
// the sweep gives the bytes of a sound memory system. A shared entry,
// whose simulator is a pure function of its key, keeps its simulator
// through a retryable error such as a deadline expiry.
func TestInputPoolRetryableErrorEvicts(t *testing.T) {
	w := matrixTestWorkloads(t)[0]
	w.Inputs = w.Inputs[:1]
	ws := []bench.Workload{w}
	sweep := func(mem ilpsim.MemSystem) string {
		t.Helper()
		cfg := matrixTestConfig()
		cfg.Opts = ilpsim.DefaultOptions()
		cfg.Opts.Mem, cfg.Opts.DeadlockLimit = mem, 1000
		res, err := RunMatrixContext(context.Background(), ws, cfg, MatrixConfig{
			Jobs:  1,
			Retry: superv.RetryPolicy{Attempts: 2, Backoff: time.Millisecond},
		})
		if err != nil {
			t.Fatal(err)
		}
		return mustJSON(t, res)
	}
	want := sweep(fixedMem{})
	b0 := builds()
	if got := sweep(&flakyMem{}); got != want {
		t.Errorf("sweep after a faulted preparation:\n  %s\nwant\n  %s", got, want)
	}
	if got := builds() - b0; got != 2 {
		t.Errorf("%d builds, want 2: the deadlocked cell's retry must rebuild the prepared simulator", got)
	}

	cfg := matrixTestConfig()
	task := MatrixTasks(ws, cfg)[0]
	pool := NewInputPool(1)
	b0 = builds()
	if _, err := pool.RunCell(context.Background(), nil, ws, cfg, task); err != nil {
		t.Fatal(err)
	}
	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, err := pool.RunCell(expired, nil, ws, cfg, task); !runx.Retryable(err) {
		t.Fatalf("run under an expired deadline: %v, want a retryable error", err)
	}
	if _, err := pool.RunCell(context.Background(), nil, ws, cfg, task); err != nil {
		t.Fatal(err)
	}
	if got := builds() - b0; got != 1 {
		t.Errorf("%d builds, want 1: a deadline expiry dropped a shared entry's sound simulator", got)
	}
}

// TestInputPoolEvictsBeforeBuild: with room for one idle input, a new
// input's build starts only after the idle one is released; with room
// for two, the least recently used goes first.
func TestInputPoolEvictsBeforeBuild(t *testing.T) {
	var pool *InputPool
	var during []string // pooled inputs still holding a simulator as each build starts
	w := bench.Workload{Name: "w"}
	for _, name := range []string{"a", "b", "c"} {
		w.Inputs = append(w.Inputs, bench.Input{Name: name, Build: func(int) (*isa.Program, error) {
			pool.mu.Lock()
			held := ""
			for _, e := range pool.entries {
				if e.name != "w/"+name && e.sim != nil {
					held += e.name[2:]
				}
			}
			pool.mu.Unlock()
			during = append(during, name+":"+held)
			return bench.BuildSynthetic(bench.SyntheticConfig{Iterations: 200, BranchesPerIter: 2, Bias: 85, Seed: 1, Work: 2})
		}})
	}
	ws := []bench.Workload{w}
	cfg := Config{MaxInstrs: 5000, Resources: []int{8}, Models: []ilpsim.Model{ilpsim.ModelSP}}
	run := func(in string) {
		t.Helper()
		if _, err := pool.RunCell(context.Background(), nil, ws, cfg, MatrixTask{Workload: "w", Input: in, Model: "SP", ET: 8}); err != nil {
			t.Fatal(err)
		}
	}

	pool, during = NewInputPool(1), nil
	for _, in := range []string{"a", "b", "a"} {
		run(in)
	}
	if got, want := during, []string{"a:", "b:", "a:"}; !slices.Equal(got, want) {
		t.Errorf("idle cap 1: builds saw %q, want %q (the idle input released before each build)", got, want)
	}

	pool, during = NewInputPool(2), nil
	for _, in := range []string{"a", "b", "a", "c", "a"} {
		run(in)
	}
	// The second "a" reuses its entry; "c" evicts "b", the least
	// recently used; the last "a" is still held.
	if got, want := during, []string{"a:", "b:a", "c:a"}; !slices.Equal(got, want) {
		t.Errorf("idle cap 2: builds saw %q, want %q", got, want)
	}

	// Recency is that of pins — of leases — not of unpins: "b", leased
	// after "a", outlives it even when its cell finishes first, so the
	// pool holds the inputs a coordinator last leased to this worker.
	pool = NewInputPool(2)
	ea, eb := pool.pin("a", "w/a", nil, 1), pool.pin("b", "w/b", nil, 1)
	pool.unpin(eb)
	pool.unpin(ea)
	pool.unpin(pool.pin("c", "w/c", nil, 1))
	if _, ok := pool.entries["a"]; ok || pool.entries["b"] == nil || pool.entries["c"] == nil {
		t.Errorf("idle cap 2 after leases a, b (b done first), c: kept %d entries, want b and c", len(pool.entries))
	}
}
