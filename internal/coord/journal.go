// Package coord is the distributed-sweep control plane: a coordinator
// that decomposes a matrix sweep into cells (the same task
// decomposition as a single-node journaled run), leases cells to
// registered deesimd workers with time-bounded leases, re-dispatches
// cells whose leases expire (worker crash, partition, or stall), and
// merges the returned results through the exact aggregation path a
// single-node run uses — so the merged tables are byte-identical.
//
// Admission, priority lanes and brownout, recovery, drain, low-disk
// mode and the /v1/jobs API are the job host deesimd runs on too
// (server.Host); this package supplies the host's fleet executor (the
// lease scheduler and merge) and the worker registry.
//
// Durability follows the superv discipline: the sweep journal is a
// durable.Log of Records, every assignment and completion one fsync'd
// JSONL record, so a SIGKILL'd coordinator resumes its sweep from the
// journal without re-running finished cells. Recovery tolerates exactly
// one failure mode — a torn final record — and treats any other damage
// as a typed KindCorrupt error.
package coord

import (
	"encoding/json"
	"fmt"
	"sort"

	"deesim/internal/durable"
)

// Tool is the tool name in every coordinator journal header; fsck
// reads it to pick the coordinator record decoder.
const Tool = "deesim-coord"

// Coordinator journal record kinds. A journal is a header followed by
// assign/done/expire/fail records appended in dispatch order.
const (
	// KindAssign marks a lease grant: the cell was durably assigned to a
	// worker before the dispatch RPC left the coordinator.
	KindAssign = "assign"
	// KindDone marks a cell completion; the record carries the worker's
	// CellResult payload verbatim. The first durable done record for a
	// key wins — later completions of the same key are duplicates.
	KindDone = "done"
	// KindExpire marks a lease the coordinator revoked (TTL passed,
	// heartbeat lost, dispatch failed); the cell returns to the pending
	// queue.
	KindExpire = "expire"
	// KindFail marks a cell attempt failing with a typed error; the
	// supervisor decides from Retryable whether the cell re-queues.
	KindFail = "fail"
)

// Record is one post-header coordinator journal line; the log adds the
// content digest as a final "sum" key.
type Record struct {
	Kind    string `json:"kind"`
	Key     string `json:"key,omitempty"`
	Worker  string `json:"worker,omitempty"`
	Lease   string `json:"lease,omitempty"`
	Attempt int    `json:"attempt,omitempty"`
	// Speculative marks a straggler-mitigation duplicate lease.
	Speculative bool            `json:"spec,omitempty"`
	Result      json.RawMessage `json:"result,omitempty"`
	Error       string          `json:"error,omitempty"`
	ErrKind     string          `json:"errkind,omitempty"`
	Retryable   bool            `json:"retryable,omitempty"`
	Reason      string          `json:"reason,omitempty"`
}

// State is the digest of a coordinator journal replay.
type State struct {
	durable.Replayed
	// Done maps completed cell keys to their durable result payloads —
	// the first completion recorded for each key.
	Done map[string]json.RawMessage
	// Attempts maps cell keys that were assigned (and possibly expired
	// or failed) to the highest attempt number the journal records.
	// Cells present here but not in Done were in flight when the
	// coordinator died; resume re-queues them.
	Attempts map[string]int
	// Duplicates counts completions discarded because an identical
	// result was already durable for the key.
	Duplicates int
}

// Journal is an open, appendable coordinator journal.
type Journal = durable.Log[Record]

var journalKind = durable.LogKind{Stage: "coord.Journal", OnAppend: mJournalFsyncs.Inc}

func newState() *State {
	return &State{Done: make(map[string]json.RawMessage), Attempts: make(map[string]int)}
}

// Create starts a fresh journal at path, fsync'ing the versioned
// header before returning.
func Create(path, tool string, meta map[string]string) (*Journal, error) {
	return CreateFS(nil, path, tool, meta)
}

// CreateFS is Create on an injectable filesystem (nil = the real one).
func CreateFS(fsys durable.FS, path, tool string, meta map[string]string) (*Journal, error) {
	return durable.CreateLog[Record](fsys, path, journalKind, tool, meta)
}

// Load replays the journal at path into a State, tolerating a torn
// final record (see durable.ReplayLog).
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

// Decode replays in-memory journal bytes.
func Decode(data []byte) (*State, error) {
	st := newState()
	var err error
	if st.Replayed, err = durable.ReplayLog(data, journalKind, st.apply); err != nil {
		return nil, err
	}
	return st, nil
}

// Resume reopens a coordinator journal for a continued sweep,
// compacted to one done record per completed cell (see
// durable.ResumeLog).
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

// apply folds one post-header record into the state. The first done
// record for a key wins — that is the deterministic duplicate rule the
// live coordinator follows, replayed identically here.
func (st *State) apply(rec Record) error {
	if rec.Key == "" {
		return fmt.Errorf("%s record without a cell key", rec.Kind)
	}
	switch rec.Kind {
	case KindAssign:
		if _, done := st.Done[rec.Key]; !done {
			if rec.Attempt > st.Attempts[rec.Key] {
				st.Attempts[rec.Key] = rec.Attempt
			} else if rec.Attempt <= 0 {
				st.Attempts[rec.Key]++
			}
		}
	case KindDone:
		if len(rec.Result) == 0 {
			return fmt.Errorf("done record for %s without a result payload", rec.Key)
		}
		if _, dup := st.Done[rec.Key]; dup {
			st.Duplicates++
			return nil
		}
		st.Done[rec.Key] = rec.Result
		delete(st.Attempts, rec.Key)
	case KindExpire, KindFail:
		if _, done := st.Done[rec.Key]; !done {
			if rec.Attempt > st.Attempts[rec.Key] {
				st.Attempts[rec.Key] = rec.Attempt
			}
		}
	default:
		return fmt.Errorf("unknown record kind %q", rec.Kind)
	}
	return nil
}

// checkpoint is what a compacted journal keeps: one done record per
// completed cell, in key order.
func (st *State) checkpoint() []Record {
	keys := make([]string, 0, len(st.Done))
	for k := range st.Done {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	recs := make([]Record, 0, len(keys))
	for _, k := range keys {
		recs = append(recs, Record{Kind: KindDone, Key: k, Attempt: 1, Result: st.Done[k]})
	}
	return recs
}

// Summary renders a one-line progress digest of a replayed state.
func (st *State) Summary(total int) string {
	return fmt.Sprintf("%d/%d cells journaled complete, %d in flight at crash, %d duplicate(s), %d torn byte(s) recovered",
		len(st.Done), total, len(st.Attempts), st.Duplicates, st.Truncated)
}
