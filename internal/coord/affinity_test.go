package coord

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"deesim/internal/client"
	"deesim/internal/obs"
	"deesim/internal/runx"
	"deesim/internal/server"
	"deesim/internal/superv"
)

// Input-affinity dispatch: a worker keeps the inputs it was last
// leased, so the coordinator sends an input's cells to the worker that
// holds it — without ever leaving a free worker idle while a cell it is
// not saved for waits, and without waiting on a holder that is gone.

// gatedWorker is a fake worker whose calls block until the test hands
// out a token on gate (or the lease is revoked), then run the real cell.
// It records the cell keys it was leased, in order.
type gatedWorker struct {
	fakeWorker
	gate chan struct{}
	mu   sync.Mutex
	keys []string
}

func newGatedWorker(gate chan struct{}) *gatedWorker {
	g := &gatedWorker{gate: gate}
	g.behavior = func(ctx context.Context, _ int, req server.CellRequest) (json.RawMessage, error) {
		g.mu.Lock()
		g.keys = append(g.keys, req.Task.Key())
		g.mu.Unlock()
		select {
		case <-g.gate:
		case <-ctx.Done():
			return nil, runx.CtxErr(ctx, "gatedWorker")
		}
		return runRealCell(ctx, req)
	}
	return g
}

func (g *gatedWorker) leased() []string {
	g.mu.Lock()
	defer g.mu.Unlock()
	return slices.Clone(g.keys)
}

// idleViolation names a free worker left idle while a cell waits and
// no waiting cell is saving it for its input, or returns "".
func idleViolation(c *Coordinator) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reapLocked()
	if len(c.waiting) == 0 {
		return ""
	}
	for _, w := range c.workers {
		if w.lost || w.state == server.WorkerDraining || w.leases >= w.slots {
			continue
		}
		saved := false
		for _, i := range c.waiting {
			saved = saved || slices.Contains(w.inputs, c.inputs[i])
		}
		if !saved {
			return w.id + " idle while cells on " + strings.Join(waitingInputs(c), ", ") + " wait"
		}
	}
	return ""
}

func waitingInputs(c *Coordinator) []string {
	var out []string
	for _, i := range c.waiting {
		out = append(out, c.inputs[i])
	}
	return out
}

// waitDispatched waits until exactly want cells have been leased and
// the fleet is work-conserving: no free worker idles while a cell it is
// not saved for waits. Both hold at quiescence under a correct rule;
// an idle free worker stays idle (the gated fakes make no progress on
// their own), so the wait times out instead of passing by luck.
func waitDispatched(t *testing.T, c *Coordinator, leased func() int, want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		v := idleViolation(c)
		n := leased()
		if v == "" && n == want {
			return
		}
		if n > want {
			t.Fatalf("%d cells leased, want %d", n, want)
		}
		if time.Now().After(deadline) {
			t.Fatalf("never settled at %d leased cells (have %d); %s", want, n, v)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestHolderLostCellsGoElsewhere: worker A holds xlisp and hangs on its
// first cell. Once A's heartbeat goes stale it holds nothing, so its
// cells are no longer saved for it: the surviving worker takes them in
// task order — ahead of eqntott, which a waiting-on-the-holder rule
// would have run first — instead of waiting for A.
func TestHolderLostCellsGoElsewhere(t *testing.T) {
	dead := &fakeWorker{behavior: stall}
	gate := make(chan struct{})
	live := newGatedWorker(gate)
	fakes := map[string]*fakeWorker{"http://a": dead, "http://b": &live.fakeWorker}
	c := newTestCoord(t, fakes, func(cfg *Config) {
		cfg.HeartbeatTimeout = 200 * time.Millisecond
	})
	idA := registerWorker(t, c, "http://a", 1)
	idB := registerWorker(t, c, "http://b", 1)
	beatForever(t, c, idB)
	stopA := make(chan struct{})
	var stopOnce sync.Once
	loseA := func() { stopOnce.Do(func() { close(stopA) }) }
	t.Cleanup(loseA)
	go func() {
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stopA:
				return
			case <-tick.C:
				_ = c.HeartbeatWorker(idA, server.WorkerReady, 0)
			}
		}
	}()
	c.Start()

	sp := server.Spec{
		Workloads: []string{"xlisp", "compress", "eqntott"},
		Models:    []string{"SP"},
		Resources: []int{8, 64},
		MaxInstrs: 3000,
	}
	st, err := c.Submit(sp)
	if err != nil {
		t.Fatal(err)
	}
	// xlisp's first cell hangs on A; compress's goes to B. xlisp's second
	// cell waits for A, its holder.
	waitDispatched(t, c, func() int { return dead.callCount() + live.callCount() }, 2)
	if got := live.leased(); !slices.Equal(got, []string{"compress/in|SP|ET=8"}) {
		t.Fatalf("B leased %v, want compress's first cell", got)
	}

	loseA()
	deadline := time.Now().Add(10 * time.Second)
	for {
		c.mu.Lock()
		retried := slices.Contains(c.waiting, 0) // xlisp's first cell, its lease revoked
		c.mu.Unlock()
		if retried {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("A's hung cell never came back to wait for a slot")
		}
		time.Sleep(2 * time.Millisecond)
	}
	for n := 2; n <= 6; n++ {
		gate <- struct{}{}
		waitDispatched(t, c, live.callCount, n)
	}
	close(gate)
	final := waitSweep(t, c, st.ID, 10*time.Second)
	if final.State != server.StateDone {
		t.Fatalf("sweep ended %s: %s", final.State, final.Error)
	}
	want := []string{
		"compress/in|SP|ET=8", "compress/in|SP|ET=64",
		"xlisp/prog|SP|ET=8", "xlisp/prog|SP|ET=64",
		"eqntott/pri3|SP|ET=8", "eqntott/pri3|SP|ET=64",
	}
	if got := live.leased(); !slices.Equal(got, want) {
		t.Errorf("B leased %v,\nwant %v", got, want)
	}
	if got := dead.callCount(); got != 1 {
		t.Errorf("lost worker leased %d cells, want 1", got)
	}
	merged, err := os.ReadFile(c.ResultPath(st.ID))
	if err != nil {
		t.Fatal(err)
	}
	if golden := goldenResult(t, sp); string(merged) != string(golden) {
		t.Error("result after the holder was lost differs from single-node golden")
	}
}

// TestColdSweepBuildsEachInputOnce: two one-slot deesimd workers run a
// four-input sweep, two ETs per input. Every input is built exactly
// once across the fleet — its second cell goes to the worker that
// built it — and the merged bytes are the single-node golden. A repeat
// of the sweep reports its own builds: the workers still hold the
// inputs they were last leased, so some of its cells reuse them.
func TestColdSweepBuildsEachInputOnce(t *testing.T) {
	sp := server.Spec{
		Workloads: []string{"espresso"},
		Models:    []string{"DEE-CD-MF"},
		Resources: []int{32, 128},
		MaxInstrs: 3000,
		// Paces every cell alike, so both workers move in step and
		// neither runs out of its own inputs while the other is still
		// building one (when it would take that input's waiting cell).
		CellDelay: "150ms",
	}
	const inputs = 4
	golden := goldenResult(t, sp)

	c := newTestCoord(t, nil, func(cfg *Config) {
		cfg.NewWorkerClient = func(url string) WorkerClient {
			cl := client.New(url)
			cl.Retry = superv.RetryPolicy{Attempts: 1}
			return cl
		}
	})
	for range 2 {
		s, err := server.New(server.Config{StateDir: t.TempDir(), CellJobs: 1, CellSlots: 1, Metrics: obs.NewRegistry()})
		if err != nil {
			t.Fatal(err)
		}
		s.Start()
		hs := httptest.NewServer(s.Handler())
		t.Cleanup(func() { hs.Close(); s.Close() })
		registerWorker(t, c, hs.URL, s.CellSlots())
	}
	c.Start()

	builds := obs.GetOrCreateCounter("deesim_input_builds_total")
	reuses := obs.GetOrCreateCounter("deesim_input_reuses_total")
	sweep := func() (int64, int64) {
		b0, r0 := builds.Value(), reuses.Value()
		st, err := c.Submit(sp)
		if err != nil {
			t.Fatal(err)
		}
		final := waitSweep(t, c, st.ID, 30*time.Second)
		if final.State != server.StateDone {
			t.Fatalf("sweep ended %s: %s", final.State, final.Error)
		}
		merged, err := os.ReadFile(c.ResultPath(st.ID))
		if err != nil {
			t.Fatal(err)
		}
		if string(merged) != string(golden) {
			t.Errorf("sweep %s differs from single-node golden", st.ID)
		}
		return builds.Value() - b0, reuses.Value() - r0
	}
	coldB, coldR := sweep()
	repeatB, repeatR := sweep()
	t.Logf("cold sweep: %d builds, %d reuses; repeat sweep: %d builds, %d reuses", coldB, coldR, repeatB, repeatR)
	if coldB != inputs || coldR != inputs {
		t.Errorf("cold sweep: %d builds and %d reuses, want %d and %d (each input built once, its second cell reusing it)", coldB, coldR, inputs, inputs)
	}
	if repeatB+repeatR != 2*inputs {
		t.Errorf("repeat sweep: %d builds + %d reuses, want %d cells", repeatB, repeatR, 2*inputs)
	}
	if got := counter(c, "deesim_coord_redispatches_total"); got != 0 {
		t.Errorf("redispatches = %d, want 0", got)
	}
}

// TestWorkerKeepsLastSlotsInputs: the coordinator records a worker's
// last slots distinct inputs, most recent last — the inputs its input
// pool (idle cap = its slots, evicting the least recently leased) still
// holds. A lost or draining worker holds none of them.
func TestWorkerKeepsLastSlotsInputs(t *testing.T) {
	w := &worker{slots: 2}
	for _, in := range []string{"b", "a", "a", ""} {
		w.leased(in)
	}
	if want := []string{"b", "a"}; !slices.Equal(w.inputs, want) {
		t.Fatalf("after leases b, a, a, (unshared): inputs %q, want %q", w.inputs, want)
	}
	w.leased("c")
	if want := []string{"a", "c"}; !slices.Equal(w.inputs, want) {
		t.Fatalf("after a further lease of c: inputs %q, want %q", w.inputs, want)
	}
	if !w.holds("a") || w.holds("b") || w.holds("") {
		t.Errorf("holds a/b/unshared = %v/%v/%v, want true/false/false", w.holds("a"), w.holds("b"), w.holds(""))
	}
	w.state = server.WorkerDraining
	if w.holds("c") {
		t.Error("a draining worker still holds its inputs")
	}
	w.state, w.lost = server.WorkerReady, true
	if w.holds("c") {
		t.Error("a lost worker still holds its inputs")
	}
}

// TestDispatchPlanFollowsChanges: the rule's view of the queue and the
// fleet is cached between changes, so every change that moves a
// decision must show in the next pick. Worker A holds input x and is
// busy; B is free. x's cell is saved for A, so y's cell, the head,
// takes B — until A drains or its heartbeat goes stale, when A holds
// nothing and x's cell, first in task order, takes B.
func TestDispatchPlanFollowsChanges(t *testing.T) {
	c := newTestCoord(t, map[string]*fakeWorker{"http://a": {}, "http://b": {}}, nil)
	idA := registerWorker(t, c, "http://a", 1)
	registerWorker(t, c, "http://b", 1)
	c.order([]string{"x", "y"})
	c.mu.Lock()
	a := c.workers[idA]
	a.leased("x")
	a.leases = 1
	c.waiting = []int{0, 1}
	c.seen, c.front = []bool{true, true}, 2
	c.mu.Unlock()
	picks := func(when string, want0, want1 string) {
		t.Helper()
		c.mu.Lock()
		defer c.mu.Unlock()
		c.reapLocked()
		for task, want := range []string{want0, want1} {
			got := ""
			if w := c.pickLocked(task); w != nil {
				got = w.url
			}
			if got != want {
				t.Errorf("%s: cell %d picked %q, want %q", when, task, got, want)
			}
		}
	}
	picks("A busy holding x", "", "http://b")
	if err := c.HeartbeatWorker(idA, server.WorkerDraining, 1); err != nil {
		t.Fatal(err)
	}
	picks("A draining", "http://b", "")
	if err := c.HeartbeatWorker(idA, server.WorkerReady, 1); err != nil {
		t.Fatal(err)
	}
	picks("A ready again", "", "http://b")
	c.mu.Lock()
	a.lastBeat = c.cfg.now().Add(-2 * c.cfg.HeartbeatTimeout)
	c.mu.Unlock()
	picks("A's heartbeat stale", "http://b", "")
}
