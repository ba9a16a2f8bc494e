package coord

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"deesim/internal/experiments"
	"deesim/internal/memo"
	"deesim/internal/server"
	"deesim/internal/superv"
)

// The coordinator's two memo duties: record fleet-computed cells into
// the cache, and serve cached cells from it so they are never
// dispatched at all.

func newMemoCoord(t *testing.T, fakes map[string]*fakeWorker) (*Coordinator, *memo.Memo) {
	t.Helper()
	m, err := memo.New(memo.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	c := newTestCoord(t, fakes, func(cfg *Config) { cfg.Memo = m })
	return c, m
}

func TestCoordRecordsFleetResultsAndPrefillsRepeat(t *testing.T) {
	fakes := map[string]*fakeWorker{"http://w1": {}}
	c, m := newMemoCoord(t, fakes)
	registerWorker(t, c, "http://w1", 2)
	c.Start()

	st, err := c.Submit(smokeSpec())
	if err != nil {
		t.Fatal(err)
	}
	final := waitSweep(t, c, st.ID, 10*time.Second)
	if final.State != server.StateDone {
		t.Fatalf("sweep ended %s: %s", final.State, final.Error)
	}
	if n := fakes["http://w1"].callCount(); n != 4 {
		t.Fatalf("cold sweep dispatched %d cells, want 4", n)
	}

	// Every fleet-computed cell was recorded into the cache.
	ws, cfg, err := smokeSpec().Resolve()
	if err != nil {
		t.Fatal(err)
	}
	tasks := experiments.MatrixTasks(ws, cfg)
	for _, task := range tasks {
		if _, ok := m.Get(experiments.CellMemoKey(cfg, task)); !ok {
			t.Errorf("cell %s missing from memo after fleet run", task.Key())
		}
	}

	// A repeated sweep dispatches nothing: the cache satisfies every
	// cell before it is leased.
	st2, err := c.Submit(smokeSpec())
	if err != nil {
		t.Fatal(err)
	}
	final2 := waitSweep(t, c, st2.ID, 10*time.Second)
	if final2.State != server.StateDone {
		t.Fatalf("warm sweep ended %s: %s", final2.State, final2.Error)
	}
	if n := fakes["http://w1"].callCount(); n != 4 {
		t.Fatalf("warm sweep dispatched %d extra cells, want 0 (total still 4)", n)
	}

	// Byte-identity: both merged results match the single-node golden.
	golden := goldenResult(t, smokeSpec())
	for _, id := range []string{st.ID, st2.ID} {
		merged, err := os.ReadFile(c.ResultPath(id))
		if err != nil {
			t.Fatal(err)
		}
		if string(merged) != string(golden) {
			t.Errorf("sweep %s merged result differs from single-node golden", id)
		}
	}

	// Crash safety: each cache-served cell is a fsync'd done record in
	// the warm sweep's journal (none was dispatched, see above), so a
	// coordinator killed mid-sweep still resumes without re-dispatching
	// them.
	jpath := filepath.Join(c.sweepDir(st2.ID), "coord.journal")
	stt, err := superv.LoadFS(nil, jpath)
	if err != nil {
		t.Fatal(err)
	}
	if len(stt.Done) != len(tasks) {
		t.Fatalf("warm journal has %d done cells, want %d", len(stt.Done), len(tasks))
	}
	raw, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	memoRecords := 0
	for _, line := range strings.Split(string(raw), "\n") {
		if line == "" {
			continue
		}
		var rec superv.Record
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			continue
		}
		if rec.Kind == superv.KindDone {
			memoRecords++
		}
	}
	if memoRecords != len(tasks) {
		t.Errorf("warm journal has %d done records served from the cache, want %d", memoRecords, len(tasks))
	}
}

func TestCoordPartialPrefillDispatchesOnlyMisses(t *testing.T) {
	fakes := map[string]*fakeWorker{"http://w1": {}}
	c, m := newMemoCoord(t, fakes)
	registerWorker(t, c, "http://w1", 2)
	c.Start()

	// Seed the cache with two of the four cells, computed out of band
	// (content addressing: where the bytes came from doesn't matter).
	ws, cfg, err := smokeSpec().Resolve()
	if err != nil {
		t.Fatal(err)
	}
	tasks := experiments.MatrixTasks(ws, cfg)
	for _, task := range tasks[:2] {
		raw, err := runRealCell(t.Context(), server.CellRequest{Spec: smokeSpec(), Task: task})
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Put(experiments.CellMemoKey(cfg, task), raw); err != nil {
			t.Fatal(err)
		}
	}

	st, err := c.Submit(smokeSpec())
	if err != nil {
		t.Fatal(err)
	}
	final := waitSweep(t, c, st.ID, 10*time.Second)
	if final.State != server.StateDone {
		t.Fatalf("sweep ended %s: %s", final.State, final.Error)
	}
	if n := fakes["http://w1"].callCount(); n != 2 {
		t.Errorf("partial-prefill sweep dispatched %d cells, want 2 (the misses)", n)
	}
	merged, err := os.ReadFile(c.ResultPath(st.ID))
	if err != nil {
		t.Fatal(err)
	}
	if golden := goldenResult(t, smokeSpec()); string(merged) != string(golden) {
		t.Errorf("mixed cache/fleet result differs from single-node golden")
	}
}
