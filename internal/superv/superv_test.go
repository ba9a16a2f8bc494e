package superv

import (
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"deesim/internal/budget"
	"deesim/internal/runx"
)

// noSleep replaces the backoff sleep so retry tests run instantly while
// still honoring cancellation.
func noSleep(cfg *Config) {
	cfg.sleep = func(ctx context.Context, d time.Duration) error {
		if err := runx.CtxErr(ctx, "test.sleep"); err != nil {
			return err
		}
		return nil
	}
}

func okTask(key string, runs *sync.Map) Task {
	return Task{Key: key, Run: func(ctx context.Context) (any, error) {
		n, _ := runs.LoadOrStore(key, new(atomic.Int64))
		n.(*atomic.Int64).Add(1)
		return map[string]string{"key": key}, nil
	}}
}

func TestRunPoolCompletesAll(t *testing.T) {
	var runs sync.Map
	var tasks []Task
	for i := 0; i < 20; i++ {
		tasks = append(tasks, okTask(fmt.Sprintf("t%02d", i), &runs))
	}
	var mu sync.Mutex
	done := map[string]bool{}
	cfg := Config{Jobs: 4, OnDone: func(key string, res json.RawMessage, replayed bool) {
		mu.Lock()
		defer mu.Unlock()
		if done[key] {
			t.Errorf("OnDone twice for %s", key)
		}
		done[key] = true
	}}
	if err := Run(context.Background(), tasks, cfg); err != nil {
		t.Fatal(err)
	}
	if len(done) != 20 {
		t.Errorf("%d tasks observed, want 20", len(done))
	}
}

func TestRunRejectsDuplicateKeys(t *testing.T) {
	var runs sync.Map
	tasks := []Task{okTask("same", &runs), okTask("same", &runs)}
	if err := Run(context.Background(), tasks, Config{}); !runx.IsKind(err, runx.KindInvalidInput) {
		t.Errorf("duplicate keys accepted: %v", err)
	}
}

// TestRetryOnlyRetryableKinds: deadline/deadlock/panic failures are
// retried up to the attempt budget; invariant-style plain errors and
// invalid input are not.
func TestRetryOnlyRetryableKinds(t *testing.T) {
	cases := []struct {
		name      string
		err       func() error
		wantRuns  int64
		wantFinal runx.Kind
	}{
		{"deadlock-retried", func() error { return runx.Newf(runx.KindDeadlock, "sim", "stuck") }, 3, runx.KindDeadlock},
		{"invariant-not-retried", func() error { return fmt.Errorf("audit: speedup exceeds oracle") }, 1, runx.KindUnknown},
		{"invalid-not-retried", func() error { return runx.Newf(runx.KindInvalidInput, "cfg", "bad") }, 1, runx.KindInvalidInput},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var runs atomic.Int64
			task := Task{Key: "x", Run: func(ctx context.Context) (any, error) {
				runs.Add(1)
				return nil, tc.err()
			}}
			cfg := Config{Retry: RetryPolicy{Attempts: 3, Backoff: time.Millisecond}}
			noSleep(&cfg)
			err := Run(context.Background(), []Task{task}, cfg)
			if err == nil {
				t.Fatal("run succeeded")
			}
			if runs.Load() != tc.wantRuns {
				t.Errorf("task ran %d times, want %d", runs.Load(), tc.wantRuns)
			}
			if tc.wantFinal != runx.KindUnknown && !runx.IsKind(err, tc.wantFinal) {
				t.Errorf("final error %v, want kind %v", err, tc.wantFinal)
			}
		})
	}
}

// TestRetryEventuallySucceeds: a task that deadlocks twice then
// succeeds is journaled with three starts, two fails, one done.
func TestRetryEventuallySucceeds(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	j, err := Create(path, "t", nil)
	if err != nil {
		t.Fatal(err)
	}
	var runs atomic.Int64
	task := Task{Key: "flaky", Run: func(ctx context.Context) (any, error) {
		if runs.Add(1) < 3 {
			return nil, runx.Newf(runx.KindDeadline, "sim", "slow attempt")
		}
		return 42, nil
	}}
	cfg := Config{Journal: j, Retry: RetryPolicy{Attempts: 5, Backoff: time.Millisecond}}
	noSleep(&cfg)
	if err := Run(context.Background(), []Task{task}, cfg); err != nil {
		t.Fatal(err)
	}
	j.Close()
	st, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(st.Done["flaky"]) != "42" {
		t.Errorf("journaled result %s", st.Done["flaky"])
	}
}

// TestPanicIsolated: a panicking task becomes a retryable KindPanic
// error, not a crashed supervisor.
func TestPanicIsolated(t *testing.T) {
	var runs atomic.Int64
	task := Task{Key: "boom", Run: func(ctx context.Context) (any, error) {
		runs.Add(1)
		panic("index out of range")
	}}
	cfg := Config{Retry: RetryPolicy{Attempts: 2}}
	noSleep(&cfg)
	err := Run(context.Background(), []Task{task}, cfg)
	if !runx.IsKind(err, runx.KindPanic) {
		t.Fatalf("got %v, want KindPanic", err)
	}
	if runs.Load() != 2 {
		t.Errorf("panicking task ran %d times, want 2 (retried once)", runs.Load())
	}
}

// TestKillAndResume is the supervisor-level half of the acceptance
// criterion: cancel a journaled run partway, resume it, and verify the
// resumed run executes exactly the tasks the first run did not
// complete, with every result delivered exactly once.
func TestKillAndResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	var tasks []Task
	execCount := make(map[string]*atomic.Int64)
	for i := 0; i < 12; i++ {
		key := fmt.Sprintf("t%02d", i)
		execCount[key] = new(atomic.Int64)
	}
	mkTasks := func(cancelAfter int64, cancel context.CancelFunc) []Task {
		var completed atomic.Int64
		tasks = nil
		for i := 0; i < 12; i++ {
			key := fmt.Sprintf("t%02d", i)
			n := execCount[key]
			tasks = append(tasks, Task{Key: key, Run: func(ctx context.Context) (any, error) {
				n.Add(1)
				if cancelAfter > 0 && completed.Add(1) == cancelAfter {
					cancel() // simulated kill mid-sweep
				}
				return key, nil
			}})
		}
		return tasks
	}

	j, err := Create(path, "t", nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	err = Run(ctx, mkTasks(4, cancel), Config{Jobs: 2, Journal: j})
	cancel()
	j.Close()
	if !runx.IsKind(err, runx.KindCanceled) {
		t.Fatalf("interrupted run returned %v, want KindCanceled", err)
	}

	st0, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	doneFirst := len(st0.Done)
	if doneFirst == 0 || doneFirst == 12 {
		t.Fatalf("first run completed %d/12 — interruption did not land mid-sweep", doneFirst)
	}

	j2, st, err := Resume(path, "t", nil)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	seen := map[string]int{}
	replayedN := 0
	cfg := Config{Jobs: 2, Journal: j2, Prior: st, OnDone: func(key string, res json.RawMessage, replayed bool) {
		mu.Lock()
		defer mu.Unlock()
		seen[key]++
		if replayed {
			replayedN++
		}
	}}
	if err := Run(context.Background(), mkTasks(0, nil), cfg); err != nil {
		t.Fatal(err)
	}
	j2.Close()

	if replayedN != doneFirst {
		t.Errorf("replayed %d results, journal held %d", replayedN, doneFirst)
	}
	// Every task body here runs to completion once started, so across
	// the interrupted run plus the resume each task must execute exactly
	// once: journaled completions are never re-run, and everything else
	// runs exactly once on resume.
	for key, n := range execCount {
		if got := n.Load(); got != 1 {
			_, wasDone := st.Done[key]
			t.Errorf("%s executed %d times (journaled-done=%v), want 1", key, got, wasDone)
		}
	}
	for key, n := range seen {
		if n != 1 {
			t.Errorf("OnDone delivered %s %d times", key, n)
		}
	}
	if len(seen) != 12 {
		t.Errorf("resume delivered %d/12 results", len(seen))
	}
}

// TestDelayDeterministic: the same (seed, key, attempt) always yields
// the same backoff; different keys decorrelate; growth is exponential
// and capped.
func TestDelayDeterministic(t *testing.T) {
	p := RetryPolicy{Attempts: 8, Backoff: 100 * time.Millisecond, MaxBackoff: time.Second, Seed: 7}
	if a, b := p.Delay("k", 2), p.Delay("k", 2); a != b {
		t.Errorf("same inputs, different delays: %v %v", a, b)
	}
	if p.Delay("k", 1) != 0 {
		t.Error("first attempt has a delay")
	}
	for attempt := 2; attempt <= 8; attempt++ {
		d := p.Delay("k", attempt)
		if d <= 0 || d > p.MaxBackoff {
			t.Errorf("attempt %d delay %v outside (0, %v]", attempt, d, p.MaxBackoff)
		}
	}
	if p.Delay("k1", 3) == p.Delay("k2", 3) && p.Delay("k1", 4) == p.Delay("k2", 4) {
		t.Error("jitter did not decorrelate sibling keys")
	}
}

func TestFirstFatalErrorWins(t *testing.T) {
	realErr := runx.Newf(runx.KindInvalidInput, "cfg", "bad geometry")
	tasks := []Task{
		{Key: "bad", Run: func(ctx context.Context) (any, error) { return nil, realErr }},
	}
	for i := 0; i < 6; i++ {
		tasks = append(tasks, Task{Key: fmt.Sprintf("slow%d", i), Run: func(ctx context.Context) (any, error) {
			<-ctx.Done()
			return nil, runx.CtxErr(ctx, "task")
		}})
	}
	err := Run(context.Background(), tasks, Config{Jobs: 4})
	if !runx.IsKind(err, runx.KindInvalidInput) {
		t.Errorf("root cause lost: %v", err)
	}
}

// TestNoRetryOnceRunContextDone: an attempt that fails because the run's
// own deadline passed is not retried — no OnRetry call, no retry or
// backoff metric, no budget token spent — and its error is returned.
func TestNoRetryOnceRunContextDone(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	task := Task{Key: "late", Run: func(ctx context.Context) (any, error) {
		cancel() // the run's deadline passes during the attempt
		return nil, runx.Newf(runx.KindDeadline, "sim", "slow attempt")
	}}
	bud := budget.New(5, 0)
	var retried atomic.Int64
	cfg := Config{
		Retry:   RetryPolicy{Attempts: 5, Backoff: time.Second},
		Budget:  bud,
		OnRetry: func(string, int, time.Duration, error) { retried.Add(1) },
	}
	retries, sleeps, ms := mRetries.Value(), mBackoffSleeps.Value(), mBackoffMs.Value()
	err := Run(ctx, []Task{task}, cfg)
	if !runx.IsKind(err, runx.KindDeadline) {
		t.Errorf("Run = %v, want the attempt's deadline error", err)
	}
	if n := retried.Load(); n != 0 {
		t.Errorf("OnRetry called %d times after the run's context ended", n)
	}
	if d := mRetries.Value() - retries; d != 0 {
		t.Errorf("retries_total moved by %d", d)
	}
	if d := mBackoffSleeps.Value() - sleeps; d != 0 {
		t.Errorf("backoff_sleeps_total moved by %d", d)
	}
	if d := mBackoffMs.Value() - ms; d != 0 {
		t.Errorf("backoff_sleep_ms_total moved by %d", d)
	}
	if got := bud.Remaining(); got != 5 {
		t.Errorf("budget has %d tokens, want all 5", got)
	}
}
