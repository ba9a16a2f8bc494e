// Package memo is the content-addressed cell-result cache: a bounded
// in-memory LRU in front of an optional durable on-disk store, with
// singleflight collapse so identical concurrent computations cost one
// execution.
//
// Keys are canonical identity strings (see experiments.CellMemoKey):
// every field that can change a result — trace identity, model, ET,
// normalized options — plus a sim-version salt, so a simulator change
// can never serve a stale result. The store hashes the key with the
// durable digest and addresses entries by that hash, which makes the
// cache content-addressed: two sweeps that share a cell share its
// entry, whatever order they ran in.
//
// Durability follows the internal/durable discipline end to end:
// entries are written with WriteFileAtomic (so a crash mid-write
// leaves only a sweepable temp file), carry sha256 sidecars, and are
// read verified. A rotted entry is quarantined — never deleted — and
// reported as a miss, so the caller heals it by recomputing; a lookup
// that races another reader's quarantine of the same entry simply
// falls through to recompute too. The cache can therefore degrade a
// result's latency but never its bytes.
package memo

import (
	"container/list"
	"context"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"deesim/internal/durable"
	"deesim/internal/obs"
	"deesim/internal/runx"
)

const stageMemo = "memo"

// EntrySuffix names on-disk cache entries; fsck recognizes it to
// report memo-store verdicts explicitly.
const EntrySuffix = ".memo"

// DefaultMemBytes is the in-memory LRU budget when Config.MemBytes is
// unset: big enough to hold every cell of a paper-scale sweep, small
// enough to be irrelevant next to a Sim's own arenas.
const DefaultMemBytes = 64 << 20

// Config configures a Memo.
type Config struct {
	// Dir is the on-disk store root ("" = in-memory only). Created if
	// missing.
	Dir string
	// MemBytes bounds the in-memory LRU (0 = DefaultMemBytes). Entries
	// larger than the whole budget stay disk-only.
	MemBytes int64
	// FS is the injectable filesystem (nil = the real one).
	FS durable.FS
	// Logger, if non-nil, receives singleflight decisions (hit,
	// collapse, miss) as structured lines. Passing the caller's context
	// into Do means each line carries that caller's correlation IDs —
	// trace_id, job, cell — so a collapsed herd is attributable to the
	// submissions that joined it. Nil discards.
	Logger *slog.Logger
}

// Memo is a content-addressed result cache. Safe for concurrent use.
type Memo struct {
	dir      string
	fsys     durable.FS
	memBytes int64
	log      *slog.Logger

	mu      sync.Mutex
	byHash  map[string]*list.Element // key hash -> LRU element
	lru     *list.List               // front = most recently used, of *entry
	inMem   int64
	flights map[string]*flight // key hash -> in-flight computation
}

type entry struct {
	hash string
	data []byte
}

// flight is one in-flight computation other callers collapse onto.
type flight struct {
	done chan struct{}
	data []byte
	err  error
}

// New opens (creating if needed) a memo store.
func New(cfg Config) (*Memo, error) {
	m := &Memo{
		dir:      cfg.Dir,
		fsys:     durable.Or(cfg.FS),
		memBytes: cfg.MemBytes,
		log:      cfg.Logger,
		byHash:   make(map[string]*list.Element),
		lru:      list.New(),
		flights:  make(map[string]*flight),
	}
	if m.memBytes <= 0 {
		m.memBytes = DefaultMemBytes
	}
	if m.log == nil {
		m.log = obs.Discard
	}
	if m.dir != "" {
		if err := m.fsys.MkdirAll(m.dir, 0o755); err != nil {
			return nil, runx.Newf(runx.KindUnavailable, stageMemo, "create memo dir %s: %w", m.dir, err)
		}
		// A crashed writer's temp files are garbage; sweep them like
		// every other durable directory on open.
		durable.SweepStale(m.fsys, m.dir)
	}
	return m, nil
}

// Dir returns the on-disk store root ("" when in-memory only).
func (m *Memo) Dir() string { return m.dir }

// hashKey maps a canonical key string to its content address: the hex
// of the durable digest, which doubles as the entry's base file name.
func hashKey(key string) string {
	return strings.TrimPrefix(durable.Digest([]byte(key)), "sha256:")
}

func (m *Memo) entryPath(hash string) string {
	return filepath.Join(m.dir, hash+EntrySuffix)
}

// Get returns the cached bytes for key, consulting the LRU then the
// on-disk store. A corrupt on-disk entry is quarantined (never
// deleted) and reported as a miss so the caller recomputes.
func (m *Memo) Get(key string) ([]byte, bool) {
	data, ok := m.get(hashKey(key))
	if ok {
		mHits.Inc()
	} else {
		mMisses.Inc()
	}
	return data, ok
}

func (m *Memo) get(hash string) ([]byte, bool) {
	m.mu.Lock()
	if el, ok := m.byHash[hash]; ok {
		m.lru.MoveToFront(el)
		data := el.Value.(*entry).data
		m.mu.Unlock()
		return data, true
	}
	m.mu.Unlock()
	if m.dir == "" {
		return nil, false
	}
	path := m.entryPath(hash)
	data, err := durable.ReadFileVerified(m.fsys, path)
	if err != nil {
		if runx.IsKind(err, runx.KindCorrupt) {
			// Rotted entry: quarantine it beside the store and heal by
			// rerun. The quarantine itself may race another reader doing
			// the same — losing that race just means the entry is already
			// out of the way, so the error is deliberately dropped.
			_, _ = durable.Quarantine(m.fsys, path)
		}
		// Anything else — including ErrNotExist from a lookup racing a
		// concurrent quarantine — is a plain miss.
		return nil, false
	}
	m.insert(hash, data)
	return data, true
}

// Put stores data under key in both the LRU and (when configured) the
// on-disk store. A failed disk write degrades the entry to in-memory
// only; it never fails the computation that produced data.
func (m *Memo) Put(key string, data []byte) error {
	return m.put(hashKey(key), data)
}

func (m *Memo) put(hash string, data []byte) error {
	m.insert(hash, data)
	if m.dir == "" {
		return nil
	}
	if err := durable.WriteFileAtomic(m.fsys, m.entryPath(hash), data); err != nil {
		kind := runx.KindUnavailable
		if !durable.IsNoSpace(err) {
			kind = runx.KindCorrupt
		}
		return runx.Newf(kind, stageMemo, "write memo entry: %w", err)
	}
	return nil
}

// insert adds (or refreshes) an in-memory entry, evicting from the
// cold end until the budget holds.
func (m *Memo) insert(hash string, data []byte) {
	if int64(len(data)) > m.memBytes {
		return // disk-only; would evict everything else for one entry
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if el, ok := m.byHash[hash]; ok {
		m.lru.MoveToFront(el)
		old := el.Value.(*entry)
		m.inMem += int64(len(data)) - int64(len(old.data))
		old.data = data
		return
	}
	m.byHash[hash] = m.lru.PushFront(&entry{hash: hash, data: data})
	m.inMem += int64(len(data))
	mBytes.Add(int64(len(data)))
	for m.inMem > m.memBytes && m.lru.Len() > 1 {
		back := m.lru.Back()
		ev := back.Value.(*entry)
		m.lru.Remove(back)
		delete(m.byHash, ev.hash)
		m.inMem -= int64(len(ev.data))
		mEvictions.Inc()
	}
}

// Do returns the cached bytes for key, or computes them with fn —
// collapsing concurrent callers of the same key onto one in-flight
// computation (singleflight). The winner's result is stored and shared
// with every waiter; a waiter whose winner was merely canceled or
// timed out takes over the computation instead of inheriting a
// cancellation that was never its own.
func (m *Memo) Do(ctx context.Context, key string, fn func(ctx context.Context) ([]byte, error)) ([]byte, error) {
	hash := hashKey(key)
	for {
		if data, ok := m.get(hash); ok {
			mHits.Inc()
			// The ctx carries the caller's correlation IDs (trace_id, job,
			// cell), so the line — and the trace instant — names who hit.
			m.log.LogAttrs(ctx, slog.LevelDebug, "memo hit", slog.String("entry", hash))
			obs.Instant(ctx, "memo hit", map[string]string{"entry": hash})
			return data, nil
		}
		m.mu.Lock()
		if f, ok := m.flights[hash]; ok {
			m.mu.Unlock()
			mCollapsed.Inc()
			m.log.LogAttrs(ctx, slog.LevelDebug, "memo collapse: joining in-flight computation", slog.String("entry", hash))
			obs.Instant(ctx, "memo collapse", map[string]string{"entry": hash})
			select {
			case <-f.done:
			case <-ctx.Done():
				return nil, runx.CtxErr(ctx, stageMemo)
			}
			if f.err == nil {
				return f.data, nil
			}
			if runx.IsKind(f.err, runx.KindCanceled) || runx.IsKind(f.err, runx.KindTimeout) {
				continue // the winner died of its own deadline, not ours
			}
			return nil, f.err
		}
		if _, ok := m.byHash[hash]; ok {
			// A winner stored its result and retired its flight after our
			// lookup above missed: serve that result, don't recompute it.
			m.mu.Unlock()
			continue
		}
		f := &flight{done: make(chan struct{})}
		m.flights[hash] = f
		m.mu.Unlock()
		mMisses.Inc()
		m.log.LogAttrs(ctx, slog.LevelDebug, "memo miss: computing", slog.String("entry", hash))
		data, err := fn(ctx)
		if err == nil {
			// Best-effort persistence: the result is already computed, so
			// a full disk degrades caching, not correctness.
			_ = m.put(hash, data)
		}
		f.data, f.err = data, err
		m.mu.Lock()
		delete(m.flights, hash)
		m.mu.Unlock()
		close(f.done)
		return data, err
	}
}

// Stats describes a memo store's contents.
type Stats struct {
	// Entries / Bytes cover the on-disk store (0 when in-memory only).
	Entries int   `json:"entries"`
	Bytes   int64 `json:"bytes"`
	// Quarantined counts artifacts parked in the store's .quarantine/.
	Quarantined int `json:"quarantined"`
	// MemEntries / MemBytes cover the in-memory LRU.
	MemEntries int   `json:"mem_entries"`
	MemBytes   int64 `json:"mem_bytes"`
}

// Stats reports the live instance's contents (disk + LRU).
func (m *Memo) Stats() (Stats, error) {
	st := Stats{}
	if m.dir != "" {
		ds, err := DirStats(m.fsys, m.dir)
		if err != nil {
			return st, err
		}
		st = ds
	}
	m.mu.Lock()
	st.MemEntries = m.lru.Len()
	st.MemBytes = m.inMem
	m.mu.Unlock()
	return st, nil
}

// DirStats walks an on-disk memo store offline (no instance needed —
// this is what `deesimctl memo stats` uses on a stopped daemon's
// store).
func DirStats(fsys durable.FS, dir string) (Stats, error) {
	fsys = durable.Or(fsys)
	st := Stats{}
	ents, err := fsys.ReadDir(dir)
	if err != nil {
		return st, runx.Newf(runx.KindInvalidInput, stageMemo, "read memo dir %s: %w", dir, err)
	}
	for _, ent := range ents {
		name := ent.Name()
		if ent.IsDir() {
			if name == durable.QuarantineDir {
				qents, err := fsys.ReadDir(filepath.Join(dir, name))
				if err != nil {
					continue
				}
				for _, q := range qents {
					if !durable.IsSumPath(q.Name()) {
						st.Quarantined++
					}
				}
			}
			continue
		}
		if !strings.HasSuffix(name, EntrySuffix) {
			continue
		}
		st.Entries++
		if info, err := ent.Info(); err == nil {
			st.Bytes += info.Size()
		}
	}
	return st, nil
}

// PurgeDir removes every entry (and its sidecar) from an on-disk memo
// store, returning how many entries were removed. Quarantined
// artifacts are deliberately left in place: purge empties the cache,
// it does not destroy corruption evidence.
func PurgeDir(fsys durable.FS, dir string) (int, error) {
	fsys = durable.Or(fsys)
	ents, err := fsys.ReadDir(dir)
	if err != nil {
		return 0, runx.Newf(runx.KindInvalidInput, stageMemo, "read memo dir %s: %w", dir, err)
	}
	removed := 0
	for _, ent := range ents {
		name := ent.Name()
		if ent.IsDir() || !strings.HasSuffix(name, EntrySuffix) {
			continue
		}
		path := filepath.Join(dir, name)
		if err := fsys.Remove(path); err != nil {
			if os.IsNotExist(err) {
				continue
			}
			return removed, runx.Newf(runx.KindUnavailable, stageMemo, "purge %s: %w", path, err)
		}
		_ = fsys.Remove(durable.SumPath(path)) // sidecar, if any
		removed++
	}
	fsys.SyncDir(dir)
	return removed, nil
}

// Purge empties the live instance: LRU and on-disk entries (quarantine
// preserved). Returns the number of on-disk entries removed.
func (m *Memo) Purge() (int, error) {
	m.mu.Lock()
	m.byHash = make(map[string]*list.Element)
	m.lru = list.New()
	m.inMem = 0
	m.mu.Unlock()
	if m.dir == "" {
		return 0, nil
	}
	return PurgeDir(m.fsys, m.dir)
}
