package experiments

import (
	"strings"
	"testing"

	"deesim/internal/bench"
	"deesim/internal/ilpsim"
)

// The canonicalization satellite: a memo key is a cache identity, so
// everything that does not change a result — spelling a default
// explicitly, writing the same float another way — must not change the
// key, and everything that does (any sim-semantics salt bump, any
// result-relevant field) must.

func paperTask() MatrixTask {
	return MatrixTask{Workload: "espresso", Input: "cps", Model: "DEE-CD-MF", ET: 64}
}

func TestMatrixTaskKeyFormatStable(t *testing.T) {
	// The journal task key is a durable wire format: coordinator
	// journals and superv journals both store it. Changing it orphans
	// every resumable journal, so the format is pinned here.
	if got, want := paperTask().Key(), "espresso/cps|DEE-CD-MF|ET=64"; got != want {
		t.Fatalf("MatrixTask.Key() = %q, want %q", got, want)
	}
}

func TestCellMemoKeyFormatStable(t *testing.T) {
	// Memo keys name on-disk cache entries, so their bytes are pinned:
	// a change here silently turns every cached cell into a miss.
	const want = "cell|deesim-sim/v1|trace=espresso/cps|scale=0|max=0|model=DEE-CD-MF|et=64|predictor=2bit|" +
		"opts=designp=0,penalty=1,strictmem=false,deadlock=0,pes=0,lat={0 0 0 0 0 0 0},cache=false,mem=false"
	if got := CellMemoKey(Config{}, paperTask()); got != want {
		t.Fatalf("CellMemoKey =\n  %s\nwant\n  %s", got, want)
	}
}

func TestCellMemoKeyDefaultInsensitive(t *testing.T) {
	// A zero-value Config and one that spells every default explicitly
	// describe the same simulation, so they must share a cache entry.
	zero := Config{}
	explicit := Config{
		Resources: PaperResources,
		Models:    ilpsim.PaperModels,
		Predictor: "2bit",
		Opts:      ilpsim.DefaultOptions(),
	}
	if k0, k1 := CellMemoKey(zero, paperTask()), CellMemoKey(explicit, paperTask()); k0 != k1 {
		t.Fatalf("zero-value and explicitly-defaulted configs disagree:\n  %s\n  %s", k0, k1)
	}
}

func TestCellMemoKeyFloatFormattingInsensitive(t *testing.T) {
	// Two spellings of the same float64 value must render identically
	// (%g is shortest-exact), while genuinely different values — even
	// ones that print the same at low precision — must not collide.
	a := Config{Opts: ilpsim.Options{DesignP: 0.5, Penalty: 1}}
	b := Config{Opts: ilpsim.Options{DesignP: 1.0 / 2.0, Penalty: 1}}
	if ka, kb := CellMemoKey(a, paperTask()), CellMemoKey(b, paperTask()); ka != kb {
		t.Fatalf("0.5 and 1.0/2.0 produced different keys:\n  %s\n  %s", ka, kb)
	}
	// Runtime (not constant) arithmetic: 0.1 + 0.2 != 0.3 in float64.
	x, y := 0.1, 0.2
	c := Config{Opts: ilpsim.Options{DesignP: x + y, Penalty: 1}}
	d := Config{Opts: ilpsim.Options{DesignP: 0.3, Penalty: 1}}
	if kc, kd := CellMemoKey(c, paperTask()), CellMemoKey(d, paperTask()); kc == kd {
		t.Fatalf("0.1+0.2 and 0.3 collided on %s; distinct float values must get distinct keys", kc)
	}
}

func TestCellMemoKeyCoversResultRelevantFields(t *testing.T) {
	base := Config{}
	baseKey := CellMemoKey(base, paperTask())
	variants := map[string]string{
		"scale": CellMemoKey(Config{Scale: 2}, paperTask()),
		"max":   CellMemoKey(Config{MaxInstrs: 1000}, paperTask()),
		"pred":  CellMemoKey(Config{Predictor: "taken"}, paperTask()),
		"opts":  CellMemoKey(Config{Opts: ilpsim.Options{Penalty: 3}}, paperTask()),
	}
	tv := paperTask()
	tv.ET = 128
	variants["et"] = CellMemoKey(base, tv)
	tm := paperTask()
	tm.Model = "EE"
	variants["model"] = CellMemoKey(base, tm)
	ti := paperTask()
	ti.Input = "bca"
	variants["input"] = CellMemoKey(base, ti)
	seen := map[string]string{baseKey: "base"}
	for what, k := range variants {
		if prev, dup := seen[k]; dup {
			t.Errorf("changing %s produced the same key as %s: %s", what, prev, k)
		}
		seen[k] = what
	}
}

func TestMemoKeySaltChangesEveryKey(t *testing.T) {
	cfg := Config{}
	if a, b := cellMemoKey("deesim-sim/v1", cfg, paperTask()), cellMemoKey("deesim-sim/v2", cfg, paperTask()); a == b {
		t.Fatal("cell key identical across salt bump; a sim change would serve poisoned hits")
	}
	if !strings.Contains(CellMemoKey(cfg, paperTask()), MemoSalt) {
		t.Fatal("CellMemoKey does not embed MemoSalt")
	}
}

func TestCellMemoKeyMatchesCanonOptsInMeta(t *testing.T) {
	// MatrixMeta (journal identity) and the memo key (cache identity)
	// must render options through the same canonical form, or a journal
	// a resume trusts and a cache entry a memo trusts could drift apart.
	cfg := Config{}.withDefaults()
	meta := MatrixMeta(bench.All()[:1], cfg)
	if want := canonOpts(cfg.Opts); meta["opts"] != want {
		t.Fatalf("MatrixMeta opts %q != canonOpts %q", meta["opts"], want)
	}
	if !strings.Contains(CellMemoKey(cfg, paperTask()), "opts="+canonOpts(cfg.Opts)) {
		t.Fatal("CellMemoKey does not embed canonOpts")
	}
}
