// Package fsck is the offline integrity checker behind
// `deesimctl fsck <state-dir>`, `deesim -fsck -journal <path>`, and
// the daemons' -fsck flags. It walks a state directory (or a single
// journal) and renders one verdict per artifact:
//
//	ok           digest sidecar (or per-record sums) verified
//	unverified   legacy artifact from before the integrity layer
//	torn         journal with recovered torn-tail bytes (still ok)
//	corrupt      content does not match its recorded digest
//	quarantined  artifact already moved aside by a daemon
//	stale        leftover temp file from a crashed writer
//	orphan       digest sidecar whose artifact is gone
//
// The exit-code contract: any corrupt or quarantined artifact makes
// Err() a runx.KindCorrupt error, so the CLIs exit with the corrupt
// code and scripts can gate on it.
package fsck

import (
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"strings"

	"deesim/internal/coord"
	"deesim/internal/durable"
	"deesim/internal/memo"
	"deesim/internal/runx"
	"deesim/internal/superv"
)

const stageFsck = "fsck"

// Verdict statuses.
const (
	StatusOK          = "ok"
	StatusUnverified  = "unverified"
	StatusTorn        = "torn"
	StatusCorrupt     = "corrupt"
	StatusQuarantined = "quarantined"
	StatusStale       = "stale"
	StatusOrphan      = "orphan"
)

// Verdict is one artifact's integrity result.
type Verdict struct {
	Path   string `json:"path"`
	Status string `json:"status"`
	Detail string `json:"detail,omitempty"`
}

// Report aggregates a walk's verdicts.
type Report struct {
	Verdicts []Verdict `json:"verdicts"`
}

func (r *Report) add(path, status, detail string) {
	r.Verdicts = append(r.Verdicts, Verdict{Path: path, Status: status, Detail: detail})
}

// Count returns how many verdicts carry the given status.
func (r *Report) Count(status string) int {
	n := 0
	for _, v := range r.Verdicts {
		if v.Status == status {
			n++
		}
	}
	return n
}

// Err returns nil for a clean tree, or a typed runx.KindCorrupt error
// when any artifact is corrupt or quarantined — the per-kind exit code
// the CLIs map onto.
func (r *Report) Err() error {
	bad := r.Count(StatusCorrupt) + r.Count(StatusQuarantined)
	if bad == 0 {
		return nil
	}
	return runx.Newf(runx.KindCorrupt, stageFsck,
		"%d corrupt and %d quarantined artifact(s); quarantined copies are under %s/ for inspection",
		r.Count(StatusCorrupt), r.Count(StatusQuarantined), durable.QuarantineDir)
}

// Render writes the human report: one line per artifact, worst first,
// then a summary.
func (r *Report) Render(w io.Writer) {
	order := map[string]int{
		StatusCorrupt: 0, StatusQuarantined: 1, StatusOrphan: 2,
		StatusStale: 3, StatusTorn: 4, StatusUnverified: 5, StatusOK: 6,
	}
	vs := append([]Verdict(nil), r.Verdicts...)
	sort.SliceStable(vs, func(i, j int) bool {
		if order[vs[i].Status] != order[vs[j].Status] {
			return order[vs[i].Status] < order[vs[j].Status]
		}
		return vs[i].Path < vs[j].Path
	})
	for _, v := range vs {
		if v.Detail != "" {
			fmt.Fprintf(w, "%-12s %s (%s)\n", v.Status, v.Path, v.Detail)
		} else {
			fmt.Fprintf(w, "%-12s %s\n", v.Status, v.Path)
		}
	}
	fmt.Fprintf(w, "fsck: %d artifact(s): %d ok, %d unverified, %d torn, %d corrupt, %d quarantined, %d stale, %d orphan sidecar(s)\n",
		len(vs), r.Count(StatusOK), r.Count(StatusUnverified), r.Count(StatusTorn),
		r.Count(StatusCorrupt), r.Count(StatusQuarantined), r.Count(StatusStale), r.Count(StatusOrphan))
}

// Dir walks root recursively and checks every artifact. fsys nil means
// the real filesystem.
func Dir(fsys durable.FS, root string) (*Report, error) {
	fsys = durable.Or(fsys)
	r := &Report{}
	if err := walk(fsys, root, false, r); err != nil {
		return nil, err
	}
	return r, nil
}

func walk(fsys durable.FS, dir string, quarantined bool, r *Report) error {
	ents, err := fsys.ReadDir(dir)
	if err != nil {
		return runx.Newf(runx.KindInvalidInput, stageFsck, "scan %s: %w", dir, err)
	}
	for _, ent := range ents {
		path := filepath.Join(dir, ent.Name())
		if ent.IsDir() {
			if err := walk(fsys, path, quarantined || ent.Name() == durable.QuarantineDir, r); err != nil {
				return err
			}
			continue
		}
		switch {
		case quarantined:
			if !durable.IsSumPath(path) {
				r.add(path, StatusQuarantined, "moved aside after a failed integrity check")
			}
		case durable.IsStaleName(ent.Name()):
			r.add(path, StatusStale, "crashed writer's temp file; swept on next journal open")
		case durable.IsSumPath(path):
			if _, err := fsys.Stat(strings.TrimSuffix(path, durable.SumSuffix)); err != nil {
				r.add(path, StatusOrphan, "digest sidecar without its artifact")
			}
			// Paired sidecars are covered by their artifact's verdict.
		case strings.HasSuffix(ent.Name(), ".journal"):
			r.Verdicts = append(r.Verdicts, Journal(fsys, path))
		case strings.HasSuffix(ent.Name(), memo.EntrySuffix):
			r.Verdicts = append(r.Verdicts, MemoEntry(fsys, path))
		default:
			r.Verdicts = append(r.Verdicts, File(fsys, path))
		}
	}
	return nil
}

// File checks one whole-file artifact against its digest sidecar.
func File(fsys durable.FS, path string) Verdict {
	fsys = durable.Or(fsys)
	verified, err := durable.VerifyFile(fsys, path)
	switch {
	case err != nil:
		return Verdict{Path: path, Status: StatusCorrupt, Detail: err.Error()}
	case verified:
		return Verdict{Path: path, Status: StatusOK}
	default:
		return Verdict{Path: path, Status: StatusUnverified, Detail: "no digest sidecar (pre-integrity artifact)"}
	}
}

// Journal checks a JSONL journal by full replay, which verifies every
// record's content digest. The header's tool picks the record decoder:
// coordinator journals hold coord records, every other tool's hold
// superv records.
func Journal(fsys durable.FS, path string) Verdict {
	data, err := durable.Or(fsys).ReadFile(path)
	if err != nil {
		return Verdict{Path: path, Status: StatusCorrupt, Detail: err.Error()}
	}
	var done, torn int
	if durable.LogTool(data) == coord.Tool {
		var st *coord.State
		if st, err = coord.Decode(data); err == nil {
			done, torn = len(st.Done), st.Truncated
		}
	} else {
		var st *superv.State
		if st, err = superv.Decode(data); err == nil {
			done, torn = len(st.Done), st.Truncated
		}
	}
	switch {
	case err != nil:
		return Verdict{Path: path, Status: StatusCorrupt, Detail: err.Error()}
	case torn > 0:
		return Verdict{Path: path, Status: StatusTorn,
			Detail: fmt.Sprintf("%d done record(s); %d torn byte(s) will drop on resume and re-run", done, torn)}
	default:
		return Verdict{Path: path, Status: StatusOK, Detail: fmt.Sprintf("%d done record(s)", done)}
	}
}

// MemoEntry checks one content-addressed result-cache entry. The check
// is the whole-file sidecar verification every artifact gets; the
// verdict is annotated so a report over a -memo-dir reads as what it
// is. A corrupt entry is only a lost cache hit — the store heals it by
// rerunning — but it still fails fsck with the corrupt exit code,
// because rotted cache entries and rotted results come from the same
// disk.
func MemoEntry(fsys durable.FS, path string) Verdict {
	v := File(fsys, path)
	if v.Detail == "" {
		v.Detail = "result-cache entry"
	} else {
		v.Detail = "result-cache entry: " + v.Detail
	}
	return v
}

// JournalReport wraps a single-journal check in a Report, for the
// `deesim -fsck -journal <path>` mode.
func JournalReport(fsys durable.FS, path string) *Report {
	r := &Report{}
	r.Verdicts = append(r.Verdicts, Journal(fsys, path))
	return r
}
