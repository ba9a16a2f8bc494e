package experiments

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"deesim/internal/ilpsim"
)

// MemoSalt is the sim-version salt baked into every memo key. A cell
// result is a pure function of its key, so the key must name every
// input that can change the simulator's output: bump this constant
// whenever a change alters simulation results (scheduler semantics,
// predictor tables, stat definitions) and every previously cached
// entry silently becomes a miss instead of a poisoned hit. It is a
// hard-coded constant, not build info, because two builds of the same
// source must share a cache.
const MemoSalt = "deesim-sim/v1"

// CellMemoKey renders one matrix cell's canonical cache identity. The
// trace itself is not hashed: trace generation is deterministic from
// (workload/input, scale, max), so those fields pin the trace digest
// by construction — the same reasoning that lets a resumed journal
// trust its replayed cells. Options are normalized through
// cfg.withDefaults() first, so a zero-value config and an explicitly
// defaulted one produce the same key.
func CellMemoKey(cfg Config, t MatrixTask) string {
	return cellMemoKey(MemoSalt, cfg, t)
}

func cellMemoKey(salt string, cfg Config, t MatrixTask) string {
	f := inputFields(cfg, t)
	// model and ET sit between max and predictor, where on-disk keys
	// have always had them.
	f = slices.Insert(f, 3, "model="+t.Model, "et="+strconv.Itoa(t.ET))
	return strings.Join(append([]string{"cell", salt}, f...), "|")
}

// InputKey renders the identity of the prepared input a cell runs on
// (see InputPool): the CellMemoKey fields that shape the trace and the
// prepared simulator, without the model and ET a cell picks on top. It
// is empty when the options carry a data cache or memory system:
// canonOpts records only whether those are set, so such inputs are
// never shared.
func InputKey(cfg Config, t MatrixTask) string {
	cfg = cfg.withDefaults()
	if cfg.Opts.Cache != nil || cfg.Opts.Mem != nil {
		return ""
	}
	return strings.Join(append([]string{"input"}, inputFields(cfg, t)...), "|")
}

// inputFields renders the fields that shape a cell's trace and prepared
// simulator — workload/input, scale, max, predictor and options. Both
// the memo key and InputKey are built from it, so a field that shapes
// the input cannot reach one key and miss the other: a pooled entry is
// only ever shared by cells whose memo keys differ in model and ET.
func inputFields(cfg Config, t MatrixTask) []string {
	cfg = cfg.withDefaults()
	return []string{
		"trace=" + t.Workload + "/" + t.Input,
		"scale=" + strconv.Itoa(cfg.Scale),
		"max=" + strconv.FormatUint(cfg.MaxInstrs, 10),
		"predictor=" + cfg.Predictor,
		"opts=" + canonOpts(cfg.Opts),
	}
}

// canonOpts renders simulation options in one canonical, order-fixed
// form — shared by the memo keys and MatrixMeta so cache identity and
// journal identity can never drift apart. %g keeps float rendering
// shortest-exact: two ways of writing the same float64 value render
// identically.
func canonOpts(o ilpsim.Options) string {
	return fmt.Sprintf("designp=%g,penalty=%d,strictmem=%t,deadlock=%d,pes=%d,lat=%v,cache=%t,mem=%t",
		o.DesignP, o.Penalty, o.StrictMemory, o.DeadlockLimit, o.PEs, o.Lat, o.Cache != nil, o.Mem != nil)
}
