package memo

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"deesim/internal/durable"
	"deesim/internal/faultinject"
	"deesim/internal/obs"
	"deesim/internal/runx"
)

func newDiskMemo(t *testing.T) *Memo {
	t.Helper()
	m, err := New(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return m
}

func TestGetPutRoundTrip(t *testing.T) {
	m := newDiskMemo(t)
	if _, ok := m.Get("cell|k1"); ok {
		t.Fatal("Get on empty store reported a hit")
	}
	want := []byte(`{"ipc":2.5}`)
	if err := m.Put("cell|k1", want); err != nil {
		t.Fatalf("Put: %v", err)
	}
	got, ok := m.Get("cell|k1")
	if !ok || !bytes.Equal(got, want) {
		t.Fatalf("Get = %q, %v; want %q, true", got, ok, want)
	}

	// The entry must survive the process: a fresh instance over the same
	// directory (empty LRU) serves it from disk, digest-verified.
	m2, err := New(Config{Dir: m.Dir()})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	got, ok = m2.Get("cell|k1")
	if !ok || !bytes.Equal(got, want) {
		t.Fatalf("reopened Get = %q, %v; want %q, true", got, ok, want)
	}
	// And the entry carries a digest sidecar per the durable discipline.
	path := m2.entryPath(hashKey("cell|k1"))
	if _, err := os.Stat(durable.SumPath(path)); err != nil {
		t.Fatalf("entry sidecar missing: %v", err)
	}
}

func TestMemoryOnly(t *testing.T) {
	m, err := New(Config{}) // no Dir: pure LRU
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := m.Put("k", []byte("v")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if got, ok := m.Get("k"); !ok || string(got) != "v" {
		t.Fatalf("Get = %q, %v", got, ok)
	}
}

func TestLRUEvictionFallsBackToDisk(t *testing.T) {
	// Budget fits two 8-byte entries; the third insert must evict the
	// coldest. The evicted entry is not lost — it reloads from disk.
	m, err := New(Config{Dir: t.TempDir(), MemBytes: 16})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for i := 0; i < 3; i++ {
		if err := m.Put(fmt.Sprintf("k%d", i), []byte(fmt.Sprintf("payload%d", i))); err != nil {
			t.Fatalf("Put k%d: %v", i, err)
		}
	}
	st, err := m.Stats()
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if st.MemEntries != 2 {
		t.Fatalf("MemEntries = %d after eviction, want 2", st.MemEntries)
	}
	if st.Entries != 3 {
		t.Fatalf("disk Entries = %d, want 3", st.Entries)
	}
	// k0 was evicted but must still hit via the disk store.
	if got, ok := m.Get("k0"); !ok || string(got) != "payload0" {
		t.Fatalf("evicted entry Get = %q, %v; want payload0, true", got, ok)
	}
}

func TestOversizeEntryStaysDiskOnly(t *testing.T) {
	m, err := New(Config{Dir: t.TempDir(), MemBytes: 4})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := m.Put("big", []byte("bigger-than-budget")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	st, err := m.Stats()
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if st.MemEntries != 0 || st.Entries != 1 {
		t.Fatalf("Stats = %+v; want 0 mem entries, 1 disk entry", st)
	}
	if got, ok := m.Get("big"); !ok || string(got) != "bigger-than-budget" {
		t.Fatalf("oversize Get = %q, %v", got, ok)
	}
}

// waitCounterDelta polls until c has advanced by at least want from
// base. Waiters increment the collapsed counter before parking on the
// flight, so this is the handshake for "the herd has arrived".
func waitCounterDelta(t *testing.T, c *obs.Counter, base, want int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for c.Value()-base < want {
		if time.Now().After(deadline) {
			t.Fatalf("counter advanced by %d, want >= %d", c.Value()-base, want)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestDoSingleflightCollapse(t *testing.T) {
	m := newDiskMemo(t)
	collapsed := obs.GetOrCreateCounter("deesim_memo_collapsed_total")
	c0 := collapsed.Value()

	const callers = 32
	var calls atomic.Int64
	entered := make(chan struct{})
	release := make(chan struct{})
	var wg sync.WaitGroup
	results := make([][]byte, callers)
	errs := make([]error, callers)
	// The winner enters fn and blocks, holding the flight open.
	wg.Add(1)
	go func() {
		defer wg.Done()
		results[0], errs[0] = m.Do(context.Background(), "cell|herd", func(context.Context) ([]byte, error) {
			close(entered)
			<-release
			calls.Add(1)
			return []byte("computed-once"), nil
		})
	}()
	<-entered
	// The rest of the herd piles onto the one in-flight computation.
	for i := 1; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = m.Do(context.Background(), "cell|herd", func(context.Context) ([]byte, error) {
				calls.Add(1)
				return []byte("must-not-recompute"), nil
			})
		}(i)
	}
	waitCounterDelta(t, collapsed, c0, callers-1)
	close(release)
	wg.Wait()

	if n := calls.Load(); n != 1 {
		t.Fatalf("fn ran %d times for %d concurrent callers, want exactly 1", n, callers)
	}
	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if !bytes.Equal(results[i], results[0]) {
			t.Fatalf("caller %d got %q, caller 0 got %q: results must be byte-identical", i, results[i], results[0])
		}
	}
	if string(results[0]) != "computed-once" {
		t.Fatalf("result = %q", results[0])
	}
	if d := collapsed.Value() - c0; d != callers-1 {
		t.Fatalf("collapsed counter advanced by %d, want %d", d, callers-1)
	}

	// The flight's result was stored: a later Do is a pure hit.
	var again atomic.Int64
	data, err := m.Do(context.Background(), "cell|herd", func(context.Context) ([]byte, error) {
		again.Add(1)
		return nil, fmt.Errorf("must not run")
	})
	if err != nil || string(data) != "computed-once" || again.Load() != 0 {
		t.Fatalf("warm Do = %q, %v (fn ran %d times)", data, err, again.Load())
	}
}

func TestDoSharesWinnerError(t *testing.T) {
	m := newDiskMemo(t)
	wantErr := runx.Newf(runx.KindInvalidInput, "test", "bad spec")
	entered := make(chan struct{})
	release := make(chan struct{})
	var calls atomic.Int64
	var wg sync.WaitGroup
	var waiterErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, waiterErr = m.Do(context.Background(), "cell|err", func(context.Context) ([]byte, error) {
			calls.Add(1)
			close(entered)
			<-release
			return nil, wantErr
		})
	}()
	<-entered
	collapsed := obs.GetOrCreateCounter("deesim_memo_collapsed_total")
	c0 := collapsed.Value()
	done := make(chan error, 1)
	go func() {
		_, err := m.Do(context.Background(), "cell|err", func(context.Context) ([]byte, error) {
			calls.Add(1)
			return nil, fmt.Errorf("waiter must not recompute a non-retryable failure")
		})
		done <- err
	}()
	waitCounterDelta(t, collapsed, c0, 1) // waiter has joined the flight
	close(release)
	wg.Wait()
	err := <-done
	if calls.Load() != 1 {
		t.Fatalf("fn ran %d times, want 1", calls.Load())
	}
	if waiterErr == nil || err == nil {
		t.Fatalf("winner err %v, waiter err %v; both must fail", waiterErr, err)
	}
	if !runx.IsKind(err, runx.KindInvalidInput) {
		t.Fatalf("waiter inherited %v, want the winner's invalid-input error", err)
	}
}

func TestDoWaiterTakesOverCanceledWinner(t *testing.T) {
	m := newDiskMemo(t)
	winnerCtx, cancelWinner := context.WithCancel(context.Background())
	entered := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _ = m.Do(winnerCtx, "cell|takeover", func(ctx context.Context) ([]byte, error) {
			close(entered)
			<-ctx.Done()
			return nil, runx.CtxErr(ctx, "test")
		})
	}()
	<-entered

	// The waiter's own context is alive; when the winner dies of its own
	// cancellation the waiter must take over and compute.
	took := make(chan struct{})
	result := make(chan []byte, 1)
	go func() {
		data, err := m.Do(context.Background(), "cell|takeover", func(context.Context) ([]byte, error) {
			close(took)
			return []byte("taken-over"), nil
		})
		if err != nil {
			t.Errorf("waiter Do: %v", err)
		}
		result <- data
	}()
	cancelWinner()
	wg.Wait()
	<-took
	if got := <-result; string(got) != "taken-over" {
		t.Fatalf("waiter result = %q, want taken-over", got)
	}
}

func TestDoCanceledWaiterReturnsOwnError(t *testing.T) {
	m := newDiskMemo(t)
	entered := make(chan struct{})
	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _ = m.Do(context.Background(), "cell|waitercancel", func(context.Context) ([]byte, error) {
			close(entered)
			<-release
			return []byte("x"), nil
		})
	}()
	<-entered
	waiterCtx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := m.Do(waiterCtx, "cell|waitercancel", func(context.Context) ([]byte, error) {
		t.Error("canceled waiter must not compute")
		return nil, nil
	})
	if !runx.IsKind(err, runx.KindCanceled) {
		t.Fatalf("canceled waiter got %v, want canceled kind", err)
	}
	close(release)
	wg.Wait()
}

// TestBitRotQuarantinesAndHeals is the rot-to-heal satellite: a rotted
// entry must be quarantined (never deleted), reported as a miss, and
// healed by rerun — a corrupt cache can cost latency, never bytes.
func TestBitRotQuarantinesAndHeals(t *testing.T) {
	dir := t.TempDir()
	ffs := faultinject.NewFaultyFS(nil, 42)
	m, err := New(Config{Dir: dir, FS: ffs})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := m.Put("cell|rot", []byte("good-bytes")); err != nil {
		t.Fatalf("Put: %v", err)
	}

	// Rot the on-disk entry, then reopen (fresh LRU) so Get must read disk.
	path := m.entryPath(hashKey("cell|rot"))
	if _, err := ffs.RotFile(path); err != nil {
		t.Fatalf("RotFile: %v", err)
	}
	m2, err := New(Config{Dir: dir, FS: ffs})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if data, ok := m2.Get("cell|rot"); ok {
		t.Fatalf("Get served rotted entry %q; corrupt entries must miss", data)
	}

	// Quarantined, not deleted: the rotted bytes moved into .quarantine/.
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("rotted entry still at %s (err %v); want quarantined away", path, err)
	}
	qents, err := os.ReadDir(filepath.Join(dir, durable.QuarantineDir))
	if err != nil {
		t.Fatalf("read quarantine: %v", err)
	}
	found := false
	for _, q := range qents {
		if !durable.IsSumPath(q.Name()) {
			found = true
		}
	}
	if !found {
		t.Fatal("no quarantined artifact found; rot must preserve evidence")
	}
	st, err := m2.Stats()
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if st.Quarantined == 0 {
		t.Fatalf("Stats.Quarantined = 0, want > 0")
	}

	// Heal by rerun: Do recomputes, stores fresh bytes, and the next Get
	// serves them verified.
	var calls atomic.Int64
	data, err := m2.Do(context.Background(), "cell|rot", func(context.Context) ([]byte, error) {
		calls.Add(1)
		return []byte("healed-bytes"), nil
	})
	if err != nil || string(data) != "healed-bytes" || calls.Load() != 1 {
		t.Fatalf("heal Do = %q, %v (fn ran %d times)", data, err, calls.Load())
	}
	m3, err := New(Config{Dir: dir, FS: ffs})
	if err != nil {
		t.Fatalf("reopen after heal: %v", err)
	}
	if got, ok := m3.Get("cell|rot"); !ok || string(got) != "healed-bytes" {
		t.Fatalf("post-heal Get = %q, %v; want healed-bytes, true", got, ok)
	}
}

// TestLookupRacingQuarantineMisses covers the fall-through: a reader
// whose lookup races another reader's quarantine of the same entry sees
// ErrNotExist mid-read and must report a plain miss, not an error.
func TestLookupRacingQuarantineMisses(t *testing.T) {
	dir := t.TempDir()
	m, err := New(Config{Dir: dir})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := m.Put("cell|raced", []byte("v")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	// Simulate the racing reader having already quarantined the entry.
	if _, err := durable.Quarantine(nil, m.entryPath(hashKey("cell|raced"))); err != nil {
		t.Fatalf("Quarantine: %v", err)
	}
	m2, err := New(Config{Dir: dir}) // fresh LRU: forces the disk path
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if data, ok := m2.Get("cell|raced"); ok {
		t.Fatalf("Get = %q after quarantine race, want miss", data)
	}
	// And Do heals it like any other miss.
	data, err := m2.Do(context.Background(), "cell|raced", func(context.Context) ([]byte, error) {
		return []byte("recomputed"), nil
	})
	if err != nil || string(data) != "recomputed" {
		t.Fatalf("Do after race = %q, %v", data, err)
	}
}

func TestPurgePreservesQuarantine(t *testing.T) {
	dir := t.TempDir()
	ffs := faultinject.NewFaultyFS(nil, 7)
	m, err := New(Config{Dir: dir, FS: ffs})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for i := 0; i < 3; i++ {
		if err := m.Put(fmt.Sprintf("k%d", i), []byte("v")); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	// Rot one entry and trip the quarantine.
	if _, err := ffs.RotFile(m.entryPath(hashKey("k0"))); err != nil {
		t.Fatalf("RotFile: %v", err)
	}
	fresh, err := New(Config{Dir: dir, FS: ffs})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if _, ok := fresh.Get("k0"); ok {
		t.Fatal("rotted entry hit")
	}

	n, err := fresh.Purge()
	if err != nil {
		t.Fatalf("Purge: %v", err)
	}
	if n != 2 {
		t.Fatalf("Purge removed %d entries, want 2 (k1, k2; k0 already quarantined)", n)
	}
	st, err := fresh.Stats()
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if st.Entries != 0 || st.MemEntries != 0 {
		t.Fatalf("post-purge Stats = %+v; want empty store", st)
	}
	if st.Quarantined == 0 {
		t.Fatal("purge destroyed quarantine evidence")
	}
	// Purged entries miss; the store still works for new Puts.
	if _, ok := fresh.Get("k1"); ok {
		t.Fatal("purged entry hit")
	}
	if err := fresh.Put("k3", []byte("v3")); err != nil {
		t.Fatalf("Put after purge: %v", err)
	}
	if got, ok := fresh.Get("k3"); !ok || string(got) != "v3" {
		t.Fatalf("Get after purge = %q, %v", got, ok)
	}
}

func TestDirStatsOffline(t *testing.T) {
	dir := t.TempDir()
	m, err := New(Config{Dir: dir})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := m.Put("a", []byte("aaaa")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if err := m.Put("b", []byte("bb")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	st, err := DirStats(nil, dir)
	if err != nil {
		t.Fatalf("DirStats: %v", err)
	}
	if st.Entries != 2 || st.Bytes != 6 {
		t.Fatalf("DirStats = %+v; want 2 entries, 6 bytes", st)
	}
	n, err := PurgeDir(nil, dir)
	if err != nil || n != 2 {
		t.Fatalf("PurgeDir = %d, %v; want 2, nil", n, err)
	}
	st, err = DirStats(nil, dir)
	if err != nil || st.Entries != 0 {
		t.Fatalf("post-purge DirStats = %+v, %v", st, err)
	}
}

func TestHitMissMetrics(t *testing.T) {
	hits := obs.GetOrCreateCounter("deesim_memo_hits_total")
	misses := obs.GetOrCreateCounter("deesim_memo_misses_total")
	m := newDiskMemo(t)
	h0, ms0 := hits.Value(), misses.Value()
	if _, ok := m.Get("k"); ok {
		t.Fatal("unexpected hit")
	}
	if err := m.Put("k", []byte("v")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if _, ok := m.Get("k"); !ok {
		t.Fatal("unexpected miss")
	}
	if d := hits.Value() - h0; d != 1 {
		t.Fatalf("hits advanced by %d, want 1", d)
	}
	if d := misses.Value() - ms0; d != 1 {
		t.Fatalf("misses advanced by %d, want 1", d)
	}
}

// TestDoComputesEachKeyOnce: callers racing on one key must never run
// fn twice, even when one looks the key up just before another caller's
// flight stores its result and retires.
func TestDoComputesEachKeyOnce(t *testing.T) {
	m, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	const keys, callers = 2000, 4
	var calls atomic.Int64
	for k := 0; k < keys; k++ {
		key := fmt.Sprintf("cell|%d", k)
		var wg sync.WaitGroup
		for c := 0; c < callers; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := m.Do(context.Background(), key, func(context.Context) ([]byte, error) {
					calls.Add(1)
					return []byte(key), nil
				}); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
	}
	if n := calls.Load(); n != keys {
		t.Fatalf("fn ran %d times for %d keys, want exactly once per key", n, keys)
	}
}
