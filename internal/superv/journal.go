// Package superv is the crash-safe experiment supervisor: it runs an
// addressable set of tasks on a bounded worker pool, records every task
// start/finish to a durable append-only JSONL run journal, retries
// retryable failures with deterministic seeded backoff, and gates
// reproduced results against golden baselines.
//
// The journal is a durable.Log of Records: one fsync'd JSON object per
// line, so a crash loses at most the record being written, and a torn
// final record is dropped on replay while damage anywhere else is a
// typed KindCorrupt error. This file supplies only what is particular
// to runs — the record fields, how records fold into a State, and what
// a compacted journal keeps.
package superv

import (
	"encoding/json"
	"fmt"

	"deesim/internal/durable"
)

// Record kinds. A journal is a header line followed by start/done/fail
// records appended in execution order.
const (
	// KindStart marks a task attempt beginning.
	KindStart = "start"
	// KindDone marks a task attempt finishing successfully; the record
	// carries the task's JSON result payload.
	KindDone = "done"
	// KindFail marks a task attempt failing; the record carries the
	// error text, its runx kind, and whether the supervisor deemed it
	// retryable.
	KindFail = "fail"
)

// Record is one post-header journal line. Kind selects which fields
// are meaningful; the log adds the content digest as a final "sum" key.
type Record struct {
	Kind      string          `json:"kind"`
	Key       string          `json:"key,omitempty"`
	Attempt   int             `json:"attempt,omitempty"`
	Result    json.RawMessage `json:"result,omitempty"`
	Error     string          `json:"error,omitempty"`
	ErrKind   string          `json:"errkind,omitempty"`
	Retryable bool            `json:"retryable,omitempty"`
}

// State is the digest of a journal replay: which tasks completed (with
// their result payloads), which were started or failed without
// completing, and the header identity and torn-tail bytes the log
// reports.
type State struct {
	durable.Replayed
	// Done maps completed task keys to their recorded result payloads.
	Done map[string]json.RawMessage
	// Pending maps task keys that were started or failed but never
	// completed to the number of attempts the journal records for them.
	Pending map[string]int
}

// Journal is an open, appendable run journal.
type Journal = durable.Log[Record]

var journalKind = durable.LogKind{Stage: "superv.Journal", OnAppend: func() {
	mJournalRecords.Inc()
	mJournalFsyncs.Inc()
}}

func newState() *State {
	return &State{Done: make(map[string]json.RawMessage), Pending: make(map[string]int)}
}

// Create starts a fresh journal at path (truncating any existing file),
// writing and fsync'ing the versioned header before returning.
func Create(path, tool string, meta map[string]string) (*Journal, error) {
	return CreateFS(nil, path, tool, meta)
}

// CreateFS is Create on an injectable filesystem (nil = the real one).
func CreateFS(fsys durable.FS, path, tool string, meta map[string]string) (*Journal, error) {
	return durable.CreateLog[Record](fsys, path, journalKind, tool, meta)
}

// Load replays the journal at path into a State; see durable.ReplayLog
// for the recovery rules.
func Load(path string) (*State, error) {
	return LoadFS(nil, path)
}

// LoadFS is Load on an injectable filesystem (nil = the real one).
func LoadFS(fsys durable.FS, path string) (*State, error) {
	st := newState()
	var err error
	if st.Replayed, err = durable.ReadLog(fsys, path, journalKind, st.apply); err != nil {
		return nil, err
	}
	return st, nil
}

// Decode is Load over in-memory journal bytes.
func Decode(data []byte) (*State, error) {
	st := newState()
	var err error
	if st.Replayed, err = durable.ReplayLog(data, journalKind, st.apply); err != nil {
		return nil, err
	}
	return st, nil
}

// Resume reopens the journal at path for a continued run, compacted to
// one done record per completed task (see durable.ResumeLog). Returns
// the reopened journal and the replayed state.
func Resume(path, tool string, meta map[string]string) (*Journal, *State, error) {
	return ResumeFS(nil, path, tool, meta)
}

// ResumeFS is Resume on an injectable filesystem (nil = the real one).
func ResumeFS(fsys durable.FS, path, tool string, meta map[string]string) (*Journal, *State, error) {
	st := newState()
	j, rp, err := durable.ResumeLog(fsys, path, journalKind, tool, meta, st.apply, st.checkpoint)
	if err != nil {
		return nil, nil, err
	}
	st.Replayed = rp
	return j, st, nil
}

// apply folds one post-header record into the state.
func (st *State) apply(rec Record) error {
	if rec.Key == "" {
		return fmt.Errorf("%s record without a task key", rec.Kind)
	}
	switch rec.Kind {
	case KindStart:
		if _, done := st.Done[rec.Key]; !done {
			if rec.Attempt > st.Pending[rec.Key] {
				st.Pending[rec.Key] = rec.Attempt
			} else if rec.Attempt <= 0 {
				st.Pending[rec.Key]++
			}
		}
	case KindDone:
		if len(rec.Result) == 0 {
			return fmt.Errorf("done record for %s without a result payload", rec.Key)
		}
		st.Done[rec.Key] = rec.Result
		delete(st.Pending, rec.Key)
	case KindFail:
		if _, done := st.Done[rec.Key]; !done {
			if rec.Attempt > st.Pending[rec.Key] {
				st.Pending[rec.Key] = rec.Attempt
			}
		}
	default:
		return fmt.Errorf("unknown record kind %q", rec.Kind)
	}
	return nil
}

// checkpoint is what a compacted journal keeps: one done record per
// completed task, in key order.
func (st *State) checkpoint() []Record {
	recs := make([]Record, 0, len(st.Done))
	for _, k := range st.Keys() {
		recs = append(recs, Record{Kind: KindDone, Key: k, Attempt: 1, Result: st.Done[k]})
	}
	return recs
}
