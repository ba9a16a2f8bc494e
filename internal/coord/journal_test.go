package coord

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"deesim/internal/durable"
	"deesim/internal/durable/durabletest"
	"deesim/internal/runx"
	"deesim/internal/superv"
)

// The coordinator journals through superv. These tests hold superv's
// replay to the journals coordinators wrote before that — their own
// record kinds (assign, expire), worker and lease stamps, speculative
// flags and duplicate completions — and to the testdata fixtures such a
// coordinator left behind.

// writeCoordSample records a small distributed sweep in the legacy
// coordinator shape: header, two cells completed (one after a lease
// expiry and re-dispatch), one duplicate completion, one cell assigned
// but in flight at "crash".
func writeCoordSample(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "sweep.journal")
	j, err := superv.Create(path, "deesim-coord", map[string]string{"digest": "abc"})
	if err != nil {
		t.Fatal(err)
	}
	recs := []superv.Record{
		{Kind: "assign", Key: "a", Worker: "w0001", Lease: "s-l00001", Attempt: 1},
		{Kind: superv.KindDone, Key: "a", Worker: "w0001", Lease: "s-l00001", Attempt: 1, Result: json.RawMessage(`{"v":1}`)},
		{Kind: "assign", Key: "b", Worker: "w0002", Lease: "s-l00002", Attempt: 1},
		{Kind: "expire", Key: "b", Worker: "w0002", Lease: "s-l00002", Attempt: 1, Reason: "worker heartbeat lost"},
		{Kind: "assign", Key: "b", Worker: "w0001", Lease: "s-l00003", Attempt: 2},
		{Kind: superv.KindDone, Key: "b", Worker: "w0001", Lease: "s-l00003", Attempt: 2, Result: json.RawMessage(`{"v":2}`)},
		// Duplicate completion of a — the zombie worker came back.
		{Kind: superv.KindDone, Key: "a", Worker: "w0002", Lease: "s-l00002", Attempt: 1, Result: json.RawMessage(`{"v":1}`)},
		{Kind: "assign", Key: "c", Worker: "w0003", Lease: "s-l00004", Attempt: 1, Speculative: true},
		{Kind: superv.KindFail, Key: "c", Worker: "w0003", Lease: "s-l00004", Attempt: 1, Error: "shed", ErrKind: "overloaded", Retryable: true},
		{Kind: "assign", Key: "d", Worker: "w0003", Lease: "s-l00005", Attempt: 1},
	}
	for _, r := range recs {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCoordJournalRoundTrip(t *testing.T) {
	path := writeCoordSample(t)
	st, err := superv.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Tool != "deesim-coord" || st.Meta["digest"] != "abc" {
		t.Errorf("header lost: %+v", st)
	}
	if len(st.Done) != 2 || string(st.Done["a"]) != `{"v":1}` || string(st.Done["b"]) != `{"v":2}` {
		t.Errorf("done = %v", st.Done)
	}
	if st.Duplicates != 1 {
		t.Errorf("duplicates = %d, want 1 (zombie re-completion of a)", st.Duplicates)
	}
	// c failed retryably and d was in flight: both must replay as
	// re-queueable with their attempt counts intact.
	if len(st.Pending) != 2 || st.Pending["c"] != 1 || st.Pending["d"] != 1 {
		t.Errorf("attempts = %v", st.Pending)
	}
	if st.Truncated != 0 {
		t.Errorf("clean journal reported %d torn bytes", st.Truncated)
	}
}

// family adapts superv's journal, replaying legacy coordinator
// records, to the durable.Log conformance suite.
func family(t *testing.T) durabletest.Family {
	data, err := os.ReadFile(writeCoordSample(t))
	if err != nil {
		t.Fatal(err)
	}
	return durabletest.Family{
		Sample: data,
		Decode: func(b []byte) (durabletest.Decoded, error) { return decoded(superv.Decode(b)) },
		Resume: func(fsys durable.FS, path string) (durabletest.Decoded, error) {
			j, st, err := superv.ResumeFS(fsys, path, Tool, nil)
			if err == nil {
				err = j.Close()
			}
			return decoded(st, err)
		},
	}
}

// legacyState is a replayed superv.State in the shape the fixture
// testdata/sample.state.json recorded for the coordinator's own replay,
// so that fixture still pins the done set, attempt counts and duplicate
// count.
type legacyState struct {
	durable.Replayed
	Done       map[string]json.RawMessage
	Attempts   map[string]int
	Duplicates int
}

func decoded(st *superv.State, err error) (durabletest.Decoded, error) {
	if err != nil {
		return durabletest.Decoded{}, err
	}
	ls := &legacyState{Replayed: st.Replayed, Done: st.Done, Attempts: st.Pending, Duplicates: st.Duplicates}
	return durabletest.Decoded{Done: st.Done, Truncated: st.Truncated, State: ls}, nil
}

func TestCoordJournalTruncateEveryByte(t *testing.T) { durabletest.TruncateEveryByte(t, family(t)) }
func TestCoordJournalFlipEveryByte(t *testing.T)     { durabletest.FlipEveryByte(t, family(t)) }
func TestCoordJournalTornTailRecovered(t *testing.T) { durabletest.TornTail(t, family(t)) }
func TestCoordJournalMidFileCorruptionTyped(t *testing.T) {
	durabletest.InteriorDamage(t, family(t))
}
func TestCoordJournalRejectsWrongVersionAndMissingHeader(t *testing.T) {
	durabletest.HeaderChecks(t, family(t))
}
func TestCoordJournalResumeCompactionFaults(t *testing.T) {
	durabletest.CompactionFaults(t, family(t))
}

// TestCoordJournalFixtures checks the format against a testdata
// journal written before the log was shared.
func TestCoordJournalFixtures(t *testing.T) { durabletest.Fixtures(t, family(t), "testdata") }

func TestCoordJournalDoneWithoutPayloadCorrupt(t *testing.T) {
	data := `{"kind":"header","v":1,"tool":"deesim-coord"}` + "\n" +
		`{"kind":"done","key":"a"}` + "\n" +
		`{"kind":"assign","key":"b","attempt":1}` + "\n"
	_, err := superv.Decode([]byte(data))
	e, ok := runx.As(err)
	if !ok || e.Kind != runx.KindCorrupt {
		t.Fatalf("payload-less interior done = %v, want KindCorrupt", err)
	}
}

// TestCoordJournalResumeCompacts: Resume must rewrite the journal to
// header + sorted done records (bounding growth across crashes), keep
// the replayed state intact, and leave the file appendable.
func TestCoordJournalResumeCompacts(t *testing.T) {
	path := writeCoordSample(t)
	j, st, err := superv.Resume(path, "deesim-coord", map[string]string{"digest": "abc"})
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Done) != 2 || st.Duplicates != 1 {
		t.Errorf("resumed state: done=%d dup=%d", len(st.Done), st.Duplicates)
	}
	if err := j.Append(superv.Record{Kind: superv.KindStart, Key: "c", Attempt: 2}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	// header + 2 compacted done records + the post-resume start.
	if len(lines) != 4 {
		t.Fatalf("compacted journal has %d lines, want 4:\n%s", len(lines), data)
	}
	st2, err := superv.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(st2.Done) != 2 || string(st2.Done["a"]) != `{"v":1}` || string(st2.Done["b"]) != `{"v":2}` {
		t.Errorf("compaction lost completions: %v", st2.Done)
	}
	if st2.Pending["c"] != 2 {
		t.Errorf("post-resume append lost: %v", st2.Pending)
	}
}

// Resume after a torn tail must drop only the torn bytes and compact
// the survivors — the double-crash case (crash while writing, then
// crash again after resume is also covered by compaction determinism).
func TestCoordJournalResumeAfterTornTail(t *testing.T) {
	path := writeCoordSample(t)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	j, st, err := superv.Resume(path, "deesim-coord", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if st.Truncated == 0 {
		t.Error("torn tail not reported through Resume")
	}
	if len(st.Done) != 2 {
		t.Errorf("resume lost completions: %v", st.Done)
	}
	// The compacted file must replay clean — no torn bytes remain.
	st2, err := superv.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Truncated != 0 {
		t.Errorf("compacted journal still torn: %d bytes", st2.Truncated)
	}
}

func TestCoordJournalResumeIdentityChecks(t *testing.T) {
	path := writeCoordSample(t)
	if _, _, err := superv.Resume(path, "other-tool", nil); err == nil {
		t.Error("resume accepted a journal recorded by another tool")
	}
	_, _, err := superv.Resume(path, "deesim-coord", map[string]string{"digest": "DIFFERENT"})
	e, ok := runx.As(err)
	if !ok || e.Kind != runx.KindInvalidInput {
		t.Errorf("meta mismatch = %v, want KindInvalidInput", err)
	}
	// Meta keys absent from the journal are ignored (new fields may be
	// added between versions without poisoning old journals).
	j, _, err := superv.Resume(path, "deesim-coord", map[string]string{"digest": "abc", "new-field": "x"})
	if err != nil {
		t.Fatalf("superset meta rejected: %v", err)
	}
	j.Close()
}

func TestCoordJournalAppendAfterClose(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	j, err := superv.Create(path, "deesim-coord", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(superv.Record{Kind: superv.KindStart, Key: "a", Attempt: 1}); err == nil {
		t.Error("append to a closed journal succeeded")
	}
}
