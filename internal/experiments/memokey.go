package experiments

import (
	"fmt"
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
	cfg = cfg.withDefaults()
	return strings.Join([]string{
		"cell", salt,
		"trace=" + t.Workload + "/" + t.Input,
		"scale=" + strconv.Itoa(cfg.Scale),
		"max=" + strconv.FormatUint(cfg.MaxInstrs, 10),
		"model=" + t.Model,
		"et=" + strconv.Itoa(t.ET),
		"predictor=" + cfg.Predictor,
		"opts=" + canonOpts(cfg.Opts),
	}, "|")
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
