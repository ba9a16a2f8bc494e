// Package durabletest is the framing conformance suite for durable.Log
// record families, in the manner of testing/fstest: each family's
// package calls it with a sample log and its decoder, so the torn-tail,
// bit-rot, header and compaction-fault contracts are written once and
// checked against every record type.
package durabletest

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"deesim/internal/durable"
	"deesim/internal/faultinject"
	"deesim/internal/runx"
)

// Decoded is a replay reduced to what the framing contract speaks
// about, plus the family's full state for equality checks.
type Decoded struct {
	Done      map[string]json.RawMessage
	Truncated int
	State     any
}

// Family is one record family under test.
type Family struct {
	// Sample is a cleanly closed log holding at least one completion,
	// whose final record is not a completion, so tearing it loses none.
	Sample []byte
	// Decode replays log bytes.
	Decode func([]byte) (Decoded, error)
	// Resume reopens the log at path on fsys through the family's
	// Resume, closes it, and returns the replayed state.
	Resume func(fsys durable.FS, path string) (Decoded, error)
}

func (f Family) full(t *testing.T) Decoded {
	t.Helper()
	d, err := f.Decode(f.Sample)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// subsetOf fails unless every completion in d is byte-identical to
// full's — recovery may lose completions, never invent or alter one.
func subsetOf(t *testing.T, what string, d, full Decoded) {
	t.Helper()
	if len(d.Done) > len(full.Done) {
		t.Fatalf("%s: recovered %d completions from a journal holding %d", what, len(d.Done), len(full.Done))
	}
	for k, v := range d.Done {
		if string(full.Done[k]) != string(v) {
			t.Fatalf("%s: completion %s payload %s != original %s", what, k, v, full.Done[k])
		}
	}
}

// TruncateEveryByte is the crash simulation: every prefix of the
// sample must either replay — never inventing completions the prefix
// doesn't contain — or fail with a typed error. Never a panic.
func TruncateEveryByte(t *testing.T, f Family) {
	full := f.full(t)
	for n := 0; n <= len(f.Sample); n++ {
		d, err := f.Decode(f.Sample[:n])
		if err != nil {
			if _, ok := runx.As(err); !ok {
				t.Fatalf("truncate@%d: untyped error %v", n, err)
			}
			continue
		}
		subsetOf(t, "truncate@"+strconv.Itoa(n), d, full)
	}
}

// FlipEveryByte is the bit-rot simulation: for every byte of the
// sample, flip one bit and replay. Per-record content digests must make
// every flip either a typed error or provably harmless — recovered
// completions a byte-identical subset of the original's (a damaged
// final record may drop to the torn-tail path and re-run; no flip may
// surface a silently altered payload).
func FlipEveryByte(t *testing.T, f Family) {
	full := f.full(t)
	for off := range f.Sample {
		rot := append([]byte(nil), f.Sample...)
		rot[off] ^= 1 << (off % 8)
		d, err := f.Decode(rot)
		if err != nil {
			if _, ok := runx.As(err); !ok {
				t.Fatalf("flip@%d: untyped error %v", off, err)
			}
			continue
		}
		subsetOf(t, "flip@"+strconv.Itoa(off), d, full)
	}
}

// TornTail: chopping bytes off the final record is recovered, with
// Truncated > 0 and every completion intact.
func TornTail(t *testing.T, f Family) {
	full := f.full(t)
	d, err := f.Decode(f.Sample[:len(f.Sample)-4])
	if err != nil {
		t.Fatal(err)
	}
	if d.Truncated == 0 {
		t.Error("torn tail not reported")
	}
	if !reflect.DeepEqual(d.Done, full.Done) {
		t.Errorf("torn tail lost completions: %v", d.Done)
	}
}

// InteriorDamage: an unparsable record between intact ones cannot be
// excused as a torn tail and is KindCorrupt.
func InteriorDamage(t *testing.T, f Family) {
	lines := strings.SplitAfter(string(f.Sample), "\n")
	lines[1] = "{torn interior record\n"
	if _, err := f.Decode([]byte(strings.Join(lines, ""))); !runx.IsKind(err, runx.KindCorrupt) {
		t.Errorf("interior damage = %v, want KindCorrupt", err)
	}
}

// HeaderChecks: an empty log, a log whose first record is not a
// header, and a header from a future format version are KindCorrupt.
func HeaderChecks(t *testing.T, f Family) {
	for name, data := range map[string]string{
		"empty":         "",
		"no header":     `{"kind":"done","key":"a","attempt":1,"result":{"v":1}}` + "\n",
		"wrong version": `{"kind":"header","v":99,"tool":"t"}` + "\n",
	} {
		if _, err := f.Decode([]byte(data)); !runx.IsKind(err, runx.KindCorrupt) {
			t.Errorf("%s: err = %v, want KindCorrupt", name, err)
		}
	}
}

// CompactionFaults injects a disk fault into Resume's compaction. A
// full disk must read as KindUnavailable (the parking contract) and an
// I/O error as a typed error; either way the journal must stay
// byte-unchanged, no checkpoint temp file may survive, and a retry
// once the fault clears must resume to the state a clean replay gives.
func CompactionFaults(t *testing.T, f Family) {
	full := f.full(t)
	for _, tc := range []struct {
		name string
		arm  func(*faultinject.FaultyFS, bool)
		kind runx.Kind
	}{
		{"enospc", (*faultinject.FaultyFS).SetNoSpace, runx.KindUnavailable},
		{"write-eio", func(ffs *faultinject.FaultyFS, on bool) { ffs.SetWriteErrRate(rate(on)) }, runx.KindCorrupt},
		{"sync-eio", func(ffs *faultinject.FaultyFS, on bool) { ffs.SetSyncErrRate(rate(on)) }, runx.KindCorrupt},
		{"rename-eio", func(ffs *faultinject.FaultyFS, on bool) { ffs.SetRenameErrRate(rate(on)) }, runx.KindCorrupt},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "run.journal")
			if err := os.WriteFile(path, f.Sample, 0o644); err != nil {
				t.Fatal(err)
			}
			ffs := faultinject.NewFaultyFS(nil, 7)
			tc.arm(ffs, true)
			if _, err := f.Resume(ffs, path); !runx.IsKind(err, tc.kind) {
				t.Fatalf("resume under %s = %v, want %s", tc.name, err, tc.kind)
			}
			if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, f.Sample) {
				t.Fatalf("journal changed by a failed resume (err %v)", err)
			}
			ents, _ := os.ReadDir(dir)
			for _, e := range ents {
				if durable.IsStaleName(e.Name()) {
					t.Fatalf("checkpoint temp %s left behind", e.Name())
				}
			}
			tc.arm(ffs, false)
			d, err := f.Resume(ffs, path)
			if err != nil {
				t.Fatalf("retry after the fault cleared: %v", err)
			}
			if !reflect.DeepEqual(d.State, full.State) {
				t.Errorf("retry resumed to %+v, want %+v", d.State, full.State)
			}
		})
	}
}

// Fixtures pins the family's on-disk format to journals in dir that
// an earlier build wrote: every NAME.journal beside a NAME.state.json
// replays to that state, the sample re-appends to sample.journal byte
// for byte, and Resume compacts it to compacted.journal.
func Fixtures(t *testing.T, f Family, dir string) {
	states, _ := filepath.Glob(filepath.Join(dir, "*.state.json"))
	if len(states) == 0 {
		t.Fatalf("no *.state.json fixtures in %s", dir)
	}
	for _, sp := range states {
		jp := strings.TrimSuffix(sp, ".state.json") + ".journal"
		d, err := f.Decode(readFile(t, jp))
		if err != nil {
			t.Fatalf("%s: %v", jp, err)
		}
		got, err := json.Marshal(d.State)
		if err != nil {
			t.Fatal(err)
		}
		var a, b any
		if json.Unmarshal(got, &a) != nil || json.Unmarshal(readFile(t, sp), &b) != nil || !reflect.DeepEqual(a, b) {
			t.Errorf("%s replays to %s, want %s", jp, got, readFile(t, sp))
		}
	}
	if !bytes.Equal(f.Sample, readFile(t, filepath.Join(dir, "sample.journal"))) {
		t.Errorf("re-appended sample differs from the fixture:\n%s", f.Sample)
	}
	path := filepath.Join(t.TempDir(), "run.journal")
	if err := os.WriteFile(path, f.Sample, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Resume(nil, path); err != nil {
		t.Fatal(err)
	}
	if got := readFile(t, path); !bytes.Equal(got, readFile(t, filepath.Join(dir, "compacted.journal"))) {
		t.Errorf("compacted sample differs from the fixture:\n%s", got)
	}
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// CheckDecode holds one decode of arbitrary bytes to the recovery
// contract, for fuzzers: the result is a usable state or a typed
// error; every recovered completion has a non-empty key and a valid
// JSON payload; and any truncation covers only the final line.
func CheckDecode(t *testing.T, data []byte, d Decoded, err error) {
	t.Helper()
	if err != nil {
		if _, ok := runx.As(err); !ok {
			t.Fatalf("untyped decode error: %v", err)
		}
		return
	}
	for k, v := range d.Done {
		if k == "" || len(v) == 0 {
			t.Fatalf("recovered empty completion %q -> %q", k, v)
		}
		if !json.Valid(v) {
			t.Fatalf("recovered invalid payload for %q: %q", k, v)
		}
	}
	if d.Truncated > len(data) {
		t.Fatalf("truncated %d bytes of a %d-byte journal", d.Truncated, len(data))
	}
	if d.Truncated > 0 {
		tail := data[len(data)-d.Truncated:]
		if i := bytes.IndexByte(tail, '\n'); i >= 0 && i != len(tail)-1 {
			t.Fatalf("recovery dropped an interior line: %q", tail)
		}
	}
}

func rate(on bool) float64 {
	if on {
		return 1
	}
	return 0
}
