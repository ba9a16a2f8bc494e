package superv

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"deesim/internal/durable"
	"deesim/internal/durable/durabletest"
	"deesim/internal/runx"
)

// writeSample records a small run: header, two completed tasks, one
// failed-then-pending task, one in-flight task.
func writeSample(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "run.journal")
	j, err := Create(path, "testtool", map[string]string{"digest": "abc"})
	if err != nil {
		t.Fatal(err)
	}
	recs := []Record{
		{Kind: KindStart, Key: "a", Attempt: 1},
		{Kind: KindDone, Key: "a", Attempt: 1, Result: json.RawMessage(`{"v":1}`)},
		{Kind: KindStart, Key: "b", Attempt: 1},
		{Kind: KindFail, Key: "b", Attempt: 1, Error: "deadline", ErrKind: "deadline exceeded", Retryable: true},
		{Kind: KindStart, Key: "b", Attempt: 2},
		{Kind: KindDone, Key: "b", Attempt: 2, Result: json.RawMessage(`{"v":2}`)},
		{Kind: KindStart, Key: "c", Attempt: 1},
		{Kind: KindFail, Key: "c", Attempt: 1, Error: "panic", ErrKind: "panic", Retryable: true},
		{Kind: KindStart, Key: "d", Attempt: 1},
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

func TestJournalRoundTrip(t *testing.T) {
	path := writeSample(t)
	st, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Tool != "testtool" || st.Meta["digest"] != "abc" {
		t.Errorf("header lost: %+v", st)
	}
	if len(st.Done) != 2 || string(st.Done["a"]) != `{"v":1}` || string(st.Done["b"]) != `{"v":2}` {
		t.Errorf("done = %v", st.Done)
	}
	if len(st.Pending) != 2 || st.Pending["c"] != 1 || st.Pending["d"] != 1 {
		t.Errorf("pending = %v", st.Pending)
	}
	if st.Truncated != 0 {
		t.Errorf("clean journal reported %d torn bytes", st.Truncated)
	}
}

// family adapts the run journal to the durable.Log conformance suite.
func family(t *testing.T) durabletest.Family {
	data, err := os.ReadFile(writeSample(t))
	if err != nil {
		t.Fatal(err)
	}
	return durabletest.Family{
		Sample: data,
		Decode: func(b []byte) (durabletest.Decoded, error) { return decoded(Decode(b)) },
		Resume: func(fsys durable.FS, path string) (durabletest.Decoded, error) {
			j, st, err := ResumeFS(fsys, path, "testtool", nil)
			if err == nil {
				err = j.Close()
			}
			return decoded(st, err)
		},
	}
}

func decoded(st *State, err error) (durabletest.Decoded, error) {
	if err != nil {
		return durabletest.Decoded{}, err
	}
	return durabletest.Decoded{Done: st.Done, Truncated: st.Truncated, State: st}, nil
}

func TestJournalTruncateEveryByte(t *testing.T)      { durabletest.TruncateEveryByte(t, family(t)) }
func TestJournalFlipEveryByte(t *testing.T)          { durabletest.FlipEveryByte(t, family(t)) }
func TestJournalTornTailRecovered(t *testing.T)      { durabletest.TornTail(t, family(t)) }
func TestJournalMidFileCorruptionTyped(t *testing.T) { durabletest.InteriorDamage(t, family(t)) }
func TestJournalHeaderChecks(t *testing.T)           { durabletest.HeaderChecks(t, family(t)) }
func TestResumeCompactionFaults(t *testing.T)        { durabletest.CompactionFaults(t, family(t)) }

// TestJournalFixtures checks the format against testdata journals
// written before the log was shared, one of them without record sums.
func TestJournalFixtures(t *testing.T) { durabletest.Fixtures(t, family(t), "testdata") }

// TestResumeCompacts: Resume swaps in a checkpoint holding the header
// plus one done record per completion, drops torn bytes, and the
// reopened journal accepts appends that survive a reload.
func TestResumeCompacts(t *testing.T) {
	path := writeSample(t)
	// Simulate a crash mid-write of the final record.
	data, _ := os.ReadFile(path)
	if err := os.WriteFile(path, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	j, st, err := Resume(path, "testtool", map[string]string{"digest": "abc"})
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Done) != 2 {
		t.Fatalf("resume state: %v", st.Done)
	}
	if err := j.Append(Record{Kind: KindStart, Key: "c", Attempt: 1}); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(Record{Kind: KindDone, Key: "c", Attempt: 1, Result: json.RawMessage(`{"v":3}`)}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(st2.Done) != 3 || st2.Truncated != 0 {
		t.Errorf("compacted+appended journal: done=%v torn=%d", st2.Done, st2.Truncated)
	}
}

func TestResumeRejectsForeignJournal(t *testing.T) {
	path := writeSample(t)
	if _, _, err := Resume(path, "othertool", nil); !runx.IsKind(err, runx.KindCorrupt) {
		t.Errorf("foreign tool accepted: %v", err)
	}
	if _, _, err := Resume(path, "testtool", map[string]string{"digest": "different"}); !runx.IsKind(err, runx.KindInvalidInput) {
		t.Errorf("mismatched meta accepted: %v", err)
	}
}
