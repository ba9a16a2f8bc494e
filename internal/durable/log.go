package durable

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"deesim/internal/runx"
)

// logVersion is the on-disk format version written to (and required
// of) every log header.
const logVersion = 1

const kindHeader = "header"

// header is a log's first line: the format version, the tool that
// wrote the log, and the run identity (config digest, matrix shape) a
// resume must match.
type header struct {
	Kind    string            `json:"kind"`
	Version int               `json:"v,omitempty"`
	Tool    string            `json:"tool,omitempty"`
	Meta    map[string]string `json:"meta,omitempty"`
}

// LogKind names one family of logs: the runx stage its errors carry
// and a hook run after every durable Append (the header's included),
// where the family counts its fsyncs.
type LogKind struct {
	Stage    string
	OnAppend func()
}

// Replayed is what a replay learns besides the caller's records: the
// header's tool and meta, and how many bytes of torn final record
// recovery dropped (0 for a cleanly closed log).
type Replayed struct {
	Tool      string
	Meta      map[string]string
	Truncated int
}

// Log is an open append-only log of R records: a versioned header line
// followed by one JSON object per line, each carrying a "sum" content
// digest and fsync'd before Append returns, so a crash — OOM, SIGKILL,
// power loss — loses at most the record being written. R must marshal
// to a non-empty JSON object without a "sum" key; the superv run
// journal and the coord sweep journal are its two record families.
// All methods are safe for concurrent use.
type Log[R any] struct {
	mu   sync.Mutex
	f    File
	path string
	kind LogKind
}

// errSum marks a record whose recorded digest does not match its
// content — bit rot, as opposed to a line that does not parse.
var errSum = errors.New("record sum")

// encodeLine marshals v as one newline-terminated JSONL line whose
// final key is "sum": the Digest of v marshaled without it. Replay
// re-marshals the decoded record the same way, which reproduces those
// bytes exactly because encoding/json field order is fixed and
// RawMessage payloads round-trip verbatim.
func encodeLine(v any) ([]byte, error) {
	body, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	if len(body) < 3 || body[0] != '{' || body[len(body)-1] != '}' {
		return nil, fmt.Errorf("record marshals to %s, want a non-empty JSON object", body)
	}
	sum := Digest(body)
	line := make([]byte, 0, len(body)+len(sum)+10)
	line = append(line, body[:len(body)-1]...)
	line = append(line, `,"sum":"`...)
	line = append(line, sum...)
	return append(line, "\"}\n"...), nil
}

// decodeLine unmarshals one line into v (a pointer) and checks its
// sum. A sum-less line is a record from before the integrity layer and
// passes unverified; a mismatch wraps errSum.
func decodeLine(line []byte, v any) error {
	var s struct {
		Sum string `json:"sum"`
	}
	if err := json.Unmarshal(line, &s); err != nil {
		return err
	}
	if err := json.Unmarshal(line, v); err != nil {
		return err
	}
	if s.Sum == "" {
		return nil
	}
	body, err := json.Marshal(v)
	if err != nil {
		return err
	}
	if err := Verify(body, s.Sum); err != nil {
		return fmt.Errorf("%w: %w", errSum, err)
	}
	return nil
}

// openKind classifies a log create/open failure: a full disk is
// transient (free space and retry — callers park the run as
// interrupted), anything else is the caller's path being wrong.
func openKind(err error) runx.Kind {
	if IsNoSpace(err) {
		return runx.KindUnavailable
	}
	return runx.KindInvalidInput
}

// writeKind classifies a write/fsync/rename failure: ENOSPC is
// KindUnavailable (the durable prefix is intact; resume once space
// frees), any other I/O error leaves the file untrustworthy —
// KindCorrupt.
func writeKind(err error) runx.Kind {
	if IsNoSpace(err) {
		return runx.KindUnavailable
	}
	return runx.KindCorrupt
}

// CreateLog starts a fresh log at path (truncating any existing file),
// writing and fsync'ing the versioned header before returning. It
// first sweeps the directory's stale temp files — debris a crashed
// writer left between TempFile and rename.
func CreateLog[R any](fsys FS, path string, k LogKind, tool string, meta map[string]string) (*Log[R], error) {
	fsys = Or(fsys)
	SweepStale(fsys, filepath.Dir(path))
	f, err := fsys.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, runx.Newf(openKind(err), k.Stage, "create %s: %w", path, err)
	}
	l := &Log[R]{f: f, path: path, kind: k}
	if err := l.append(header{Kind: kindHeader, Version: logVersion, Tool: tool, Meta: meta}); err != nil {
		f.Close()
		return nil, err
	}
	return l, nil
}

// Append writes rec as one summed JSONL line and fsyncs before
// returning — the durability contract every record relies on.
func (l *Log[R]) Append(rec R) error { return l.append(rec) }

func (l *Log[R]) append(v any) error {
	line, err := encodeLine(v)
	if err != nil {
		return runx.Newf(runx.KindInvalidInput, l.kind.Stage, "marshal record: %w", err)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return runx.Newf(runx.KindInvalidInput, l.kind.Stage, "append to closed journal %s", l.path)
	}
	if _, err := l.f.Write(line); err != nil {
		return runx.Newf(writeKind(err), l.kind.Stage, "write %s: %w", l.path, err)
	}
	if err := l.f.Sync(); err != nil {
		return runx.Newf(writeKind(err), l.kind.Stage, "fsync %s: %w", l.path, err)
	}
	if l.kind.OnAppend != nil {
		l.kind.OnAppend()
	}
	return nil
}

// Path returns the log's file path.
func (l *Log[R]) Path() string { return l.path }

// Close syncs and closes the log file.
func (l *Log[R]) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := l.f.Sync()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f = nil
	return err
}

// ReadLog replays the log at path; see ReplayLog.
func ReadLog[R any](fsys FS, path string, k LogKind, apply func(R) error) (Replayed, error) {
	data, err := Or(fsys).ReadFile(path)
	if err != nil {
		return Replayed{}, runx.Newf(runx.KindInvalidInput, k.Stage, "read %s: %w", path, err)
	}
	return ReplayLog(data, k, apply)
}

// ReplayLog decodes log bytes, folding every post-header record into
// the caller's state through apply. Recovery tolerates exactly one
// failure mode — a torn final record from a crash mid-write: an
// unterminated final chunk, or a final line that does not parse, fails
// its sum, or is refused by apply, is dropped and counted in
// Replayed.Truncated. Any other damage (a missing or wrong-version
// header, a damaged or refused record before the final line) is a
// typed *runx.Error of kind KindCorrupt, because a log damaged
// mid-file cannot be trusted to say what completed. ReplayLog never
// panics on arbitrary bytes; the journal fuzzers hold it to that.
func ReplayLog[R any](data []byte, k LogKind, apply func(R) error) (Replayed, error) {
	var rp Replayed
	sawHeader := false
	for lineNo := 1; len(data) > 0; lineNo++ {
		// Append writes line+\n in one write, so a complete record always
		// ends in a newline; an unterminated final chunk is torn.
		nl := bytes.IndexByte(data, '\n')
		if nl < 0 {
			rp.Truncated = len(data)
			break
		}
		line, last := data[:nl], nl+1 == len(data)
		data = data[nl+1:]
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var err error
		if !sawHeader {
			var h header
			if err = decodeLine(line, &h); err == nil {
				if h.Kind != kindHeader {
					return Replayed{}, runx.Newf(runx.KindCorrupt, k.Stage, "line %d: first record is %q, want header", lineNo, h.Kind)
				}
				if h.Version != logVersion {
					return Replayed{}, runx.Newf(runx.KindCorrupt, k.Stage, "journal version %d, this build reads %d", h.Version, logVersion)
				}
				rp.Tool, rp.Meta, sawHeader = h.Tool, h.Meta, true
				continue
			}
		} else {
			var rec R
			if err = decodeLine(line, &rec); err == nil {
				if err = apply(rec); err == nil {
					continue
				}
			}
		}
		if last {
			// A torn or damaged final record is recoverable: drop it and
			// re-run the affected work.
			rp.Truncated = len(line) + 1
			break
		}
		if errors.Is(err, errSum) {
			NoteCorrupt()
		}
		return Replayed{}, runx.Newf(runx.KindCorrupt, k.Stage, "line %d: %w", lineNo, err)
	}
	if !sawHeader {
		return Replayed{}, runx.Newf(runx.KindCorrupt, k.Stage, "no journal header (empty or truncated before the header record)")
	}
	return rp, nil
}

// ResumeLog reopens the log at path for a continued run: it replays
// the existing records through apply (tolerating a torn tail), checks
// that the header names the same tool and agrees with every meta key
// the caller supplies (keys absent from the log are ignored, so new
// identity fields never poison old logs), then atomically replaces the
// log with a compacted checkpoint — header plus keep() — and reopens it
// for append. The checkpoint bounds growth across repeated crashes and
// guarantees the resumed file starts from a clean, fully-terminated
// prefix. On any error the log at path is left byte-unchanged.
func ResumeLog[R any](fsys FS, path string, k LogKind, tool string, meta map[string]string, apply func(R) error, keep func() []R) (*Log[R], Replayed, error) {
	fsys = Or(fsys)
	SweepStale(fsys, filepath.Dir(path))
	rp, err := ReadLog(fsys, path, k, apply)
	if err != nil {
		return nil, Replayed{}, err
	}
	if rp.Tool != tool {
		return nil, Replayed{}, runx.Newf(runx.KindCorrupt, k.Stage, "journal %s was recorded by %q, not %q", path, rp.Tool, tool)
	}
	for key, v := range rp.Meta {
		if want, ok := meta[key]; ok && want != v {
			return nil, Replayed{}, runx.Newf(runx.KindInvalidInput, k.Stage,
				"journal %s was recorded with %s=%q, this run has %q", path, key, v, want)
		}
	}
	if err := compact(fsys, path, k, header{Kind: kindHeader, Version: logVersion, Tool: rp.Tool, Meta: rp.Meta}, keep()); err != nil {
		return nil, Replayed{}, err
	}
	f, err := fsys.OpenFile(path, os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, Replayed{}, runx.Newf(openKind(err), k.Stage, "reopen %s: %w", path, err)
	}
	return &Log[R]{f: f, path: path, kind: k}, rp, nil
}

// compact replaces the log at path with head followed by recs through
// the temp-file, fsync and rename path every durable write shares, so
// any failure — returned classified — leaves path untouched.
func compact[R any](fsys FS, path string, k LogKind, head header, recs []R) error {
	data, err := encodeLine(head)
	for i := 0; i < len(recs) && err == nil; i++ {
		var line []byte
		line, err = encodeLine(recs[i])
		data = append(data, line...)
	}
	if err == nil {
		err = writeFileAtomicRaw(fsys, path, data)
	}
	if err != nil {
		return runx.Newf(writeKind(err), k.Stage, "write checkpoint: %w", err)
	}
	return nil
}

// ReopenLog opens the log at path for a run that may be continuing.
// With no log at path it runs create. With one it runs resume; if that
// fails with anything but KindUnavailable (a full disk leaves the log
// intact — the caller parks and retries), the log carries no
// trustworthy progress, so it is quarantined — never deleted — and
// create starts over. quarantined is the damaged log's new path ("" if
// none) and cause the resume error that sent it there. Runs are
// deterministic, so restarting from scratch is the safe heal; the heal
// is counted in deesim_durable_healed_total.
func ReopenLog(fsys FS, path string, resume, create func() error) (quarantined string, cause error, err error) {
	fsys = Or(fsys)
	if _, serr := fsys.Stat(path); serr == nil {
		cause = resume()
		if cause == nil {
			return "", nil, nil
		}
		if runx.IsKind(cause, runx.KindUnavailable) {
			return "", nil, cause
		}
		if quarantined, err = Quarantine(fsys, path); err != nil {
			return "", cause, runx.Newf(runx.KindCorrupt, stageDurable, "journal %s unusable (%v) and quarantine failed: %v", path, cause, err)
		}
		NoteHealed()
	}
	return quarantined, cause, create()
}
