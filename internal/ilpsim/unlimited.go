// The forward constraint pass: one walk over the trace, in trace order,
// that computes every instruction's issue cycle as a max-plus
// recurrence. It runs every closed-form model (SP, EE, DEE) at
// unlimited PEs, with a window (RunContext) and without one
// (RunUnlimitedContext, the Lam & Wilson setting).
//
// Why a recurrence is exact. With unlimited PEs an instruction issues
// at the first cycle in which it is both data-ready and covered (PEs
// cap nothing), and under the closed-form shapes coverage only grows
// while an instruction waits (sched.go's control-parking argument): the
// set of unknown branches in front of it that it cannot relax past only
// shrinks, and the root only moves towards it. So each coverage
// condition is a threshold on the cycle, and the issue cycle is the
// max of the thresholds. In "ready" terms (t = r+1 issues, f = r+lat
// finishes):
//
//   - data: r ≥ the finish of every producer, pulled from the producer
//     table (a producer precedes its consumers in the trace, so its
//     finish is known);
//   - serialization (non-MF): a branch's r ≥ the previous branch's f;
//   - window: E_q is the cycle at whose end the root passes path q,
//     E_q = max(E_{q-1}, max f on q, f_b + penalty), the last term only
//     for a mispredicted branch b ending q under SP or DEE (the restart
//     hold). Path p sits within depth D of the root from cycle
//     E_{p-D-1}+1 on, so the window term is r ≥ E_{p-D-1} (0 when
//     p ≤ D, and 0 throughout unlimited mode);
//   - gates: a mispredicted branch u is a gate with time f_u + penalty;
//     it becomes known at the cycle after. G1 and G2 are the latest and
//     second-latest gate times on earlier paths that the instruction
//     cannot relax past: all of them under Restrictive, those failing
//     relaxRule.relaxes under CD and CD-MF;
//   - cover: EE r ≥ E_{p-LEE-1}; SP r ≥ max(G1, E_{p-ML-1}); DEE
//     r ≥ min(max(G1, E_{p-ML-1}), max(G2, E_{p-H-1})) — the mainline
//     needs every unrelaxed branch known, the side paths all but one.
//
// The windowed run takes E_{np-1} cycles; the unlimited one the largest
// finish. Both find G1 and G2 in one gate structure (gateSet), exact
// and at a cost per instruction that does not grow with the gates
// pending, so a deep window costs no more than a shallow one and the
// unlimited mode keeps every gate. A gate whose time is at most the
// window term E_{p-D-1} can never bind path p or any later path, so the
// windowed pass drops it when it meets it.
//
// The windowed pass reports what the event kernel (sched.go) reports:
// MaxPEs from per-cycle issue counts (issueLog), and the kernel's
// watchdog and cycle-limit errors, at the same cycle, found from the
// issue times alone. Once the pass reaches path p, no later instruction
// issues before E_{p-D-1}+1, so the cycles below that floor are final
// and issueLog folds them in order; a stall shows there as a run of
// DeadlockLimit+1 cycles without an issue. PEs caps and the tree
// strategies (DEE-pure, DEE-profile) stay on the event kernel: under a
// cap issue priority, not readiness, picks the instructions, and a tree
// has no threshold form.
package ilpsim

import (
	"context"
	"math"
	"math/bits"
	"sync"

	"deesim/internal/dee"
	"deesim/internal/runx"
)

// RunUnlimited simulates a model with unconstrained branch-path
// resources — the Lam & Wilson infinite-resource setting the paper
// compares against (§1.2: "Lam and Wilson simulated many abstract models
// of execution with unlimited resources ... For comparison purposes, the
// SP variants are simulated herein, but with constrained resources").
// It is the forward constraint pass without a window: under SP every
// pending mispredict gates everything after it; under EE nothing is
// gated (with CD-MF this reproduces the Oracle exactly); under DEE the
// infinite triangle covers the paths beyond a single pending
// mispredict, so an instruction is delayed only by the second most
// binding gate. The CD models exempt control-independent,
// operand-unambiguous instructions exactly as in the windowed
// simulator.
func (s *Sim) RunUnlimited(m Model) (Result, error) {
	return s.RunUnlimitedContext(context.Background(), m)
}

// RunUnlimitedContext is RunUnlimited with cooperative cancellation and
// panic isolation: the forward pass checks ctx every few thousand
// paths, and a panic is recovered at this boundary into a typed
// *runx.Error with model attribution.
func (s *Sim) RunUnlimitedContext(ctx context.Context, m Model) (Result, error) {
	if !closedForm(m) {
		return Result{}, attribute(runx.Newf(runx.KindInvalidInput, "ilpsim.RunUnlimited", "unlimited mode supports SP, EE and DEE"), m, 0, 0)
	}
	return s.runForward(ctx, m, 0)
}

// closedForm reports whether m's strategy has a closed-form shape (SP,
// EE, DEE), the strategies the forward pass runs.
func closedForm(m Model) bool {
	return m.Strategy == dee.SP || m.Strategy == dee.EE || m.Strategy == dee.DEE
}

// gate is one issued mispredicted branch: its relaxation rule, the
// path it ends (its identity), and its time.
type gate struct {
	relaxRule
	id   int32
	time int64 // finish + penalty: gated instructions issue after it
}

// top2 holds the two latest distinct gates of a set: times t1 >= t2,
// ids -1 (and times 0) while empty.
type top2 struct {
	t1, t2   int64
	id1, id2 int32
}

var emptyTop2 = top2{id1: -1, id2: -1}

// add counts gate id at time t. A gate already held (same id, so the
// same time) is not counted twice.
func (a *top2) add(t int64, id int32) {
	if t > a.t1 {
		a.t2, a.id2 = a.t1, a.id1
		a.t1, a.id1 = t, id
	} else if t > a.t2 && id != a.id1 {
		a.t2, a.id2 = t, id
	}
}

// gateSet answers the pass's one gate question — the two latest gates
// an instruction cannot relax past — at a cost that does not grow with
// the number of gates pending. An instruction relaxes past gate u when
// it lies at or past u's join and reads nothing u's wrong side may
// write, so the gates binding instruction k are:
//
//   - every gate without a join (under Restrictive, every gate): never;
//   - every gate whose join lies past k: the max-heap pending;
//   - every joined gate whose wrong side may write one of k's source
//     registers, or store when k loads: the tables regs and mem.
//
// never, regs and mem only grow, so each keeps its top two. The heap
// drops a gate lazily, when it reaches the heap's top three: the top
// two of the pending gates are then the root and the larger child, and
// a joined gate further down is dominated by two distinct pending
// gates above it, so it cannot be one of k's top two either. A dropped
// gate moves into the tables, unless its wrong side writes nothing. A
// gate at or below the floor (the window term, under which no later
// instruction issues) binds nothing any more and is dropped outright.
type gateSet struct {
	never   top2
	pending []gate
	regs    [32]top2
	mem     top2
	compact int // heap size at which stale entries are next swept
}

func (gs *gateSet) reset() {
	gs.never, gs.mem = emptyTop2, emptyTop2
	for r := range gs.regs {
		gs.regs[r] = emptyTop2
	}
	gs.pending = gs.pending[:0]
	gs.compact = 64
}

func (gs *gateSet) add(g gate) {
	if g.join == math.MaxInt32 {
		gs.never.add(g.time, g.id)
		return
	}
	gs.pending = append(gs.pending, g)
	siftUp(gs.pending, len(gs.pending)-1, later)
}

// binding returns the two latest gates that instruction k, with source
// mask sm and load flag ld, cannot relax past, among gates above floor.
func (gs *gateSet) binding(k int32, sm uint32, ld bool, floor int64) top2 {
	if len(gs.pending) >= gs.compact {
		gs.sweep(k, floor)
	}
	h := gs.pending
	for i := 0; i < 3 && i < len(h); {
		if g := h[i]; g.join <= k || g.time <= floor {
			gs.drop(i, k, floor)
			h = gs.pending
			continue
		}
		i++
	}
	acc := gs.never
	for i := 0; i < 3 && i < len(h); i++ {
		acc.add(h[i].time, h[i].id)
	}
	for m := sm; m != 0; m &= m - 1 {
		r := &gs.regs[bits.TrailingZeros32(m)]
		acc.add(r.t1, r.id1)
		acc.add(r.t2, r.id2)
	}
	if ld {
		acc.add(gs.mem.t1, gs.mem.id1)
		acc.add(gs.mem.t2, gs.mem.id2)
	}
	return acc
}

// retire moves a joined gate into the tables of what its wrong side
// may write.
func (gs *gateSet) retire(g gate) {
	for m := g.regs; m != 0; m &= m - 1 {
		gs.regs[bits.TrailingZeros32(m)].add(g.time, g.id)
	}
	if g.mem {
		gs.mem.add(g.time, g.id)
	}
}

// drop removes heap entry i, retiring it if it has joined and binds
// anything past the floor.
func (gs *gateSet) drop(i int, k int32, floor int64) {
	h := gs.pending
	g := h[i]
	if g.join <= k && g.time > floor {
		gs.retire(g)
	}
	last := len(h) - 1
	h[i] = h[last]
	gs.pending = h[:last]
	if i < last {
		siftDown(gs.pending, i, later)
		siftUp(gs.pending, i, later)
	}
}

// sweep retires or drops every stale heap entry at once, so the heap
// holds what can still bind, up to a constant factor.
func (gs *gateSet) sweep(k int32, floor int64) {
	live := gs.pending[:0]
	for _, g := range gs.pending {
		switch {
		case g.time <= floor:
		case g.join <= k:
			gs.retire(g)
		default:
			live = append(live, g)
		}
	}
	gs.pending = live
	for i := len(live)/2 - 1; i >= 0; i-- {
		siftDown(live, i, later)
	}
	gs.compact = max(64, 2*len(live))
}

func later(a, b gate) bool { return a.time > b.time }

func earlier(a, b int64) bool { return a < b }

// siftUp and siftDown restore the order of the binary heap h, in which
// no element goes before its parent, after h[i] changed.
func siftUp[T any](h []T, i int, before func(a, b T) bool) {
	for i > 0 {
		p := (i - 1) / 2
		if !before(h[i], h[p]) {
			return
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
}

func siftDown[T any](h []T, i int, before func(a, b T) bool) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && before(h[c+1], h[c]) {
			c++
		}
		if !before(h[c], h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// fwdState is the forward pass's per-run arena, recycled through
// fwdStates like the event kernel's runState. Finish times are kept at
// 32 bits when every time a run can store fits (almost always), else at
// 64.
type fwdState struct {
	fin32 []int32
	fin64 []int64
	ends  []int64 // ring of E_q, indexed q & (len-1)
	gates gateSet
	log   issueLog
}

var fwdStates sync.Pool

// runForward runs the forward pass: windowed at ET et, or unlimited
// when et is 0. Windowed runs report to the sim telemetry as event
// kernel runs do.
func (s *Sim) runForward(ctx context.Context, m Model, et int) (res Result, err error) {
	stage := "ilpsim.RunUnlimited"
	if et > 0 {
		stage = "ilpsim.Run"
	}
	var cycle int64
	var tally simTally
	defer func() {
		if r := recover(); r != nil {
			err = attribute(runx.FromPanic(r, stage), m, et, cycle)
		}
	}()
	st, _ := fwdStates.Get().(*fwdState)
	if et > 0 {
		if st == nil {
			mSimArenaAlloc.Inc()
		} else {
			mSimArenaReuse.Inc()
		}
		defer func() { tally.flush(cycle) }()
	}
	if st == nil {
		st = new(fwdState)
	}
	defer fwdStates.Put(st)

	// The largest time a run can store: every instruction adds at most
	// its latency, a penalty and a cycle to the latest time before it,
	// and a windowed run stops counting at its cycle limit.
	n := int64(s.n)
	bound := int64(math.MaxInt64)
	if per := int64(s.maxLat) + int64(s.opts.Penalty) + 2; per <= math.MaxInt64/n {
		bound = per * n
	}
	if et > 0 {
		bound = min(bound, int64(s.opts.DeadlockLimit)+n+1)
	}
	if bound < math.MaxInt32 {
		st.fin32 = growSlice(st.fin32, s.n+1)
		return forwardPass(ctx, s, m, et, st, st.fin32, &cycle, &tally)
	}
	st.fin64 = growSlice(st.fin64, s.n+1)
	return forwardPass(ctx, s, m, et, st, st.fin64, &cycle, &tally)
}

// forwardPass is the loop of runForward over finish times of type T.
// fin[k+1] is instruction k's finish, written before any consumer reads
// it, so the arena needs no clearing; fin[0] = 0 stands for every
// absent producer (noDep + 1). *cycle tracks the cycle errors are
// attributed to.
func forwardPass[T int32 | int64](ctx context.Context, s *Sim, m Model, et int, st *fwdState, fin []T, cycle *int64, tally *simTally) (Result, error) {
	windowed := et > 0
	stage := "ilpsim.RunUnlimited"
	var (
		shape    dee.Shape
		res      Result
		maxDepth int
	)
	if windowed {
		stage = "ilpsim.Run"
		shape, res, maxDepth = s.runSetup(m, et)
	} else {
		res = s.resultHeader(m, 0)
	}
	hDepth := min(shape.H, shape.ML) // DEE's side-path depth

	np := len(s.pathBranch)
	n := int64(s.n)
	penalty := int64(s.opts.Penalty)
	limit := int64(s.opts.DeadlockLimit)
	mf := m.CDMode == CDMF
	gated := m.Strategy != dee.EE // EE reads no gates, so it records none
	restrictive := m.CDMode == Restrictive
	isDEE := m.Strategy == dee.DEE

	// A windowed run that reaches cycle limit+n+1 fails there, so it
	// keeps every time saturated at that cycle (sat): comparisons with
	// the cycles before it stay exact, and the stored times stay small.
	sat := int64(math.MaxInt64)
	if windowed {
		sat = limit + n + 1
	}
	ends := growSlice(st.ends, nextPow2(maxDepth+2))
	st.ends = ends
	emask := len(ends) - 1
	endAt := func(q int) int64 {
		if q < 0 {
			return 0
		}
		return ends[q&emask]
	}
	// rootAt is the root path at the end of cycle c, for a c at or past
	// the window floor of path p-1: paths before p-maxDepth-1 have all
	// been passed by then, and paths from p on not yet.
	rootAt := func(c int64, p int) int {
		q := max(0, p-maxDepth-1)
		for q < p && endAt(q) <= c {
			q++
		}
		return q
	}
	log := &st.log
	log.reset()
	// stalled is the watchdog's trip at cycle c; pastLimit the cycle
	// limit's, at sat, with p the next path the pass would visit.
	stalled := func(c int64, p int) error {
		*cycle = c
		hp := rootAt(c, p)
		e := runx.Newf(runx.KindDeadlock, stage, "no forward progress for %d cycles (hp=%d/%d)", limit+1, hp, np)
		e.Snap = runx.TakeSnapshot(c, int64(hp), int64(np), limit+1)
		return attribute(e, m, et, c)
	}
	pastLimit := func(p int) error {
		*cycle = sat
		hp := rootAt(sat-1, p)
		e := runx.Newf(runx.KindDeadlock, stage, "exceeded cycle limit %d over %d instructions (hp=%d/%d)", s.opts.DeadlockLimit, n, hp, np)
		e.Snap = runx.TakeSnapshot(sat, int64(hp), int64(np), sat-1-log.last)
		return attribute(e, m, et, sat)
	}

	fin[0] = 0
	tick := runx.NewTicker(4096)
	gates := &st.gates
	gates.reset()
	var prevBr, maxf int64
	var win, winH, prevEnd int64 // window terms of the current path, and E_{p-1}

	for p := 0; p < np; p++ {
		if windowed {
			win = endAt(p - maxDepth - 1)
			winH = endAt(p - hDepth - 1)
			prevEnd = endAt(p - 1)
			if c := log.settle(min(win+1, sat), limit); c > 0 {
				return res, stalled(c, p)
			}
			if win >= sat {
				return res, pastLimit(p)
			}
		}
		br := int(s.pathBranch[p]) // -1 on the branchless tail
		var pathMax, hold int64
		start, end := int(s.pathStart[p]), int(s.pathStart[p+1])
		if cerr := tick.Check(ctx, stage); cerr != nil {
			if !windowed {
				return res, attribute(cerr, m, 0, int64(start))
			}
			*cycle = log.lo
			cerr.Snap = runx.TakeSnapshot(log.lo, int64(rootAt(log.lo-1, p)), int64(np), log.lo-1-log.last)
			return res, attribute(cerr, m, et, log.lo)
		}
		for k := start; k < end; k++ {
			pr := &s.prod[k]
			r := int64(max(fin[pr[0]+1], fin[pr[1]+1], fin[pr[2]+1]))
			cov := win
			if gated {
				g := gates.never
				if !restrictive {
					g = gates.binding(int32(k), s.srcMask[k], s.isLoad[k], win)
				}
				cov = max(g.t1, win)
				if isDEE {
					cov = min(cov, max(g.t2, winH))
				}
			}
			r = max(r, cov)
			if k == br && !mf {
				r = max(r, prevBr)
			}
			f := min(r+int64(s.lat[k]), sat)
			fin[k+1] = T(f)
			pathMax = max(pathMax, f)
			if t := r + 1; windowed && t < sat {
				if t-log.lo < int64(len(log.cnt)) {
					log.cnt[t&log.mask]++
					log.live++
				} else {
					log.addFar(t)
				}
			}
			if k != br {
				continue
			}
			prevBr = f
			if s.pathCorrect[p] {
				continue
			}
			if windowed && r >= prevEnd {
				res.RootResolvedMispredicts++
			}
			if !gated {
				continue
			}
			hold = min(f+penalty, sat)
			rule := relaxRule{join: math.MaxInt32} // Restrictive: nothing relaxes
			if !restrictive {
				rule = s.relaxRuleOf(p)
			}
			gates.add(gate{rule, int32(p), hold})
		}
		tally.issued += int64(end - start)
		if windowed {
			ends[p&emask] = max(prevEnd, pathMax, hold)
		} else {
			maxf = max(maxf, pathMax)
		}
	}

	if !windowed {
		res.Cycles = maxf
	} else {
		cend := endAt(np - 1)
		if c := log.settle(min(cend+1, sat), limit); c > 0 {
			return res, stalled(c, np)
		}
		if cend >= sat {
			return res, pastLimit(np)
		}
		res.Cycles = cend
		res.MaxPEs = log.peak
	}
	*cycle = res.Cycles
	res.Speedup = float64(res.Insts) / float64(res.Cycles)
	res.AvgPEs = res.Speedup // one instruction per PE per cycle
	return res, nil
}

// issueLog counts the windowed pass's issues per cycle over the cycles
// it has not settled yet, and folds settled cycles into the peak
// (MaxPEs) and the watchdog's idle count. A ring covers the cycles
// [lo, lo+len(cnt)); it doubles up to issueRingMax when an issue lands
// past it, and issues past even that wait in a min-heap. Memory thus
// follows the window's issue spread, not the length of a stall, and a
// stretch with no issue is skipped in one step.
type issueLog struct {
	cnt  []int32 // cnt[c&mask]: issues at cycle c, for lo <= c < lo+len(cnt)
	mask int64
	far  []int64 // min-heap of issue cycles past the ring when recorded
	lo   int64   // first cycle not yet settled
	live int     // issues counted in cnt
	last int64   // latest settled cycle with an issue; 0 before the first
	peak int     // most issues in one settled cycle
}

const (
	issueRingMin = 1 << 10
	issueRingMax = 1 << 16
)

func (l *issueLog) reset() {
	if l.cnt == nil {
		l.cnt = make([]int32, issueRingMin)
	}
	clear(l.cnt)
	l.mask = int64(len(l.cnt) - 1)
	l.far = l.far[:0]
	l.lo, l.live, l.last, l.peak = 1, 0, 0, 0
}

// addFar records an issue at a cycle t past the ring (the pass counts
// the others in cnt itself): it grows the ring to reach t if it may,
// and otherwise keeps t on the heap.
func (l *issueLog) addFar(t int64) {
	for len(l.cnt) < issueRingMax && t-l.lo >= int64(len(l.cnt)) {
		old, omask := l.cnt, l.mask
		l.cnt = make([]int32, 2*len(old))
		l.mask = int64(len(l.cnt) - 1)
		for c := l.lo; c < l.lo+int64(len(old)); c++ {
			l.cnt[c&l.mask] = old[c&omask]
		}
	}
	if t-l.lo < int64(len(l.cnt)) {
		l.cnt[t&l.mask]++
		l.live++
		l.migrate() // the grown ring may reach heap entries
		return
	}
	l.far = append(l.far, t)
	siftUp(l.far, len(l.far)-1, earlier)
}

// migrate moves the heap's entries that the ring now reaches into it.
func (l *issueLog) migrate() {
	for h := l.far; len(h) > 0 && h[0]-l.lo < int64(len(l.cnt)); h = l.far {
		l.cnt[h[0]&l.mask]++
		l.live++
		last := len(h) - 1
		h[0] = h[last]
		l.far = h[:last]
		siftDown(l.far, 0, earlier)
	}
}

// settle folds the cycles before upto, which no later issue can reach,
// in cycle order. It returns the first of them at which the event
// kernel's watchdog trips — the limit+1-th consecutive cycle without
// an issue — or 0.
func (l *issueLog) settle(upto, limit int64) int64 {
	for l.lo < upto {
		if l.live == 0 {
			next := upto
			if len(l.far) > 0 {
				next = min(next, l.far[0])
			}
			if trip := l.last + limit + 1; trip < next {
				return trip
			}
			l.lo = next
			l.migrate()
			continue
		}
		i := l.lo & l.mask
		if c := l.cnt[i]; c > 0 {
			l.cnt[i] = 0
			l.live -= int(c)
			l.peak = max(l.peak, int(c))
			l.last = l.lo
		} else if l.lo == l.last+limit+1 {
			return l.lo
		}
		l.lo++
		if len(l.far) > 0 && l.far[0]-l.lo < int64(len(l.cnt)) {
			l.migrate()
		}
	}
	return 0
}
