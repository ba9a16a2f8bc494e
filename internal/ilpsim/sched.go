// Event-driven ready-list scheduler for the ILP limit simulator.
//
// The legacy inner loop (runLegacy) rescans every unissued instruction
// in the window every simulated cycle: O(cycles × window instructions).
// This file replaces the scan with the classic event-driven machinery:
//
//   - per-instruction remaining-dependency counters (pending), seeded
//     from the precomputed dependency in-degrees plus one serialization
//     edge per non-first branch under the non-MF models;
//   - producer→consumer wakeup lists (Sim.wakeOff/wakeList, CSR form,
//     built once in NewContext): when an instruction's completion event
//     drains, it decrements its consumers' counters, and an instruction
//     whose counter hits zero is appended to its path's ready list;
//   - a calendar (bucket ring) queue of completion events sized by the
//     largest instruction latency — an instruction issued at cycle c
//     with latency l finishes at c+l-1 and wakes consumers at c+l,
//     which is exactly the legacy "producers finish strictly earlier"
//     rule;
//   - cycle-skipping: when a cycle issues nothing and the window root
//     does not move, the machine state is frozen until the next event,
//     so simulated time jumps straight to the earliest of (a) the next
//     scheduled wakeup, (b) the next known-direction transition of an
//     unresolved mispredicted window branch (finish+penalty+1), and
//     (c) the root path's release (pathDone, or the misprediction
//     restart hold finish+penalty). Jumps are clamped so the deadlock
//     watchdog and the absolute cycle limit trip at exactly the cycle
//     the legacy loop would have tripped at.
//
// Issue order inside a cycle matches the legacy loop — window paths in
// root-first order, instructions in trace order within a path — so the
// PEs cap selects the identical instruction set. Within-cycle issues
// never enable same-cycle dependents (a producer issued at cycle c has
// finish >= c, and dependents require finish < cycle), which is why
// wakeup-at-finish+1 reproduces the legacy dependency scan exactly.
//
// Coverage checks run on dee.BitVec bitsets (Shape.CoveredBits,
// Tree.ContainsBits) instead of bool vectors, and all per-run buffers
// come from a per-Sim sync.Pool arena so repeated runs — including the
// eight paper models fanned out concurrently over one Sim — allocate
// almost nothing.
package ilpsim

import (
	"context"
	"slices"

	"deesim/internal/dee"
	"deesim/internal/runx"
)

// runState is the per-run arena: every mutable buffer one RunContext
// call needs. Instances are recycled through Sim.pool; all slices keep
// their capacity across runs, so steady-state runs allocate only what
// the ready lists and calendar buckets grow by.
type runState struct {
	finish        []int64   // 0 = not issued; else completion cycle
	pending       []uint8   // remaining dependency (+serialization) count
	pathRemaining []int32   // unissued instructions per path
	pathDone      []int64   // completion cycle of the path's latest instruction
	ready         [][]int32 // per path: dep-ready, unissued instructions
	readyDirty    []bool    // per path: ready list needs re-sorting
	buckets       [][]int32 // calendar ring of completion events (producer positions)
	mask          int64     // len(buckets)-1; len is a power of two
	inFlight      int       // scheduled, undrained completion events
	known         dee.BitVec
	scratch       dee.BitVec
	unknown       []int32   // window depths of unknown-direction branches
	psBuf         []float64 // profile-tree rebuild scratch
	// Per-cycle CD-relaxation tables, parallel to unknown: the join
	// position and wrong-side write set of each unknown window branch,
	// hoisted out of the per-candidate relaxation loop.
	relJ    []int32
	relRegs []uint32
	relMem  []bool
}

// growSlice returns s with length n, reallocating only when capacity is
// insufficient. Contents are unspecified; callers reset what they need.
func growSlice[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// nextPow2 returns the smallest power of two >= n (and >= 1).
func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// getRunState fetches an arena from the pool and resets it for a run
// over n instructions, np paths, a known-vector of words uint64 words,
// and a calendar ring of ring slots.
func (s *Sim) getRunState(n, np, words, ring int) *runState {
	st, _ := s.pool.Get().(*runState)
	if st == nil {
		st = new(runState)
		mSimArenaAlloc.Inc()
	} else {
		mSimArenaReuse.Inc()
	}
	st.finish = growSlice(st.finish, n)
	clear(st.finish)
	st.pending = growSlice(st.pending, n)
	st.pathRemaining = growSlice(st.pathRemaining, np)
	copy(st.pathRemaining, s.pathSize)
	st.pathDone = growSlice(st.pathDone, np)
	clear(st.pathDone)
	st.ready = growSlice(st.ready, np)
	for i := range st.ready {
		st.ready[i] = st.ready[i][:0]
	}
	st.readyDirty = growSlice(st.readyDirty, np)
	clear(st.readyDirty)
	st.buckets = growSlice(st.buckets, ring)
	for i := range st.buckets {
		st.buckets[i] = st.buckets[i][:0]
	}
	st.mask = int64(ring - 1)
	st.inFlight = 0
	st.known = growSlice(st.known, words)
	st.scratch = growSlice(st.scratch, words)
	st.unknown = st.unknown[:0]
	return st
}

// push appends k to its path's ready list, keeping the sorted-ascending
// invariant cheap: the dirty flag is set only when k lands out of order
// (wakeups almost always arrive in trace order).
func (st *runState) push(ap int32, k int32) {
	rl := st.ready[ap]
	if len(rl) > 0 && rl[len(rl)-1] > k {
		st.readyDirty[ap] = true
	}
	st.ready[ap] = append(rl, k)
}

// buildRelax hoists the loop-invariant half of the CD relaxation — each
// unknown window branch's join position and wrong-side write set — into
// tables parallel to st.unknown, so the per-candidate loop is pure
// table lookups.
func (s *Sim) buildRelax(st *runState, hp int) {
	nu := len(st.unknown)
	st.relJ = growSlice(st.relJ, nu)
	st.relRegs = growSlice(st.relRegs, nu)
	st.relMem = growSlice(st.relMem, nu)
	for i, ur := range st.unknown {
		j := s.pathJoin[hp+int(ur)]
		st.relJ[i] = j
		if j >= 0 {
			w := s.wrongSideWrites(s.pathBranch[hp+int(ur)])
			st.relRegs[i] = w.Regs
			st.relMem[i] = w.Mem
		}
	}
}

// runEvent is the event-driven scheduler behind RunContext. It produces
// cycle-for-cycle identical Results to runLegacy (asserted by the
// differential tests and the fuzz target in sched_test.go).
func (s *Sim) runEvent(ctx context.Context, m Model, et int) (res Result, err error) {
	const stage = "ilpsim.Run"
	var cycle int64
	var tally simTally
	defer func() {
		tally.flush(cycle)
		if r := recover(); r != nil {
			err = attribute(runx.FromPanic(r, stage), m, et, cycle)
		}
	}()
	vectorCov := m.Strategy == dee.DEEPure || m.Strategy == dee.DEEProfile
	profile := m.Strategy == dee.DEEProfile
	mf := m.CDMode == CDMF

	shape, res, maxDepth := s.runSetup(m, et)

	np := s.tr.NumPaths()
	n := len(s.tr.Ins)
	penalty := int64(s.opts.Penalty)
	limit := int64(s.opts.DeadlockLimit)

	ring := nextPow2(int(s.maxLat) + 1)
	st := s.getRunState(n, np, (maxDepth+63)/64, ring)
	defer s.pool.Put(st)

	// Seed dependency counters and the initial ready lists from the
	// precomputed per-family tables. Under the serialized (non-MF) models
	// each branch after the first carries one extra pending edge,
	// released when the previous branch's completion event drains.
	si := 0
	if !mf {
		si = 1
	}
	copy(st.pending, s.initPending[si])
	for _, k := range s.initReady[si] {
		ap := s.d.path[k]
		st.ready[ap] = append(st.ready[ap], k) // ascending k: stays sorted
	}

	// DEE-profile: dynamic greedy tree over per-branch accuracies,
	// rebuilt when the window root moves.
	var profTree *dee.Tree
	lastHP := -1

	hp := 0
	tick := runx.NewTicker(4096)
	wd := runx.NewWatchdog(limit)

	for hp < np {
		cycle++
		if cerr := tick.Check(ctx, stage); cerr != nil {
			cerr.Snap = runx.TakeSnapshot(cycle, int64(hp), int64(np), wd.Idle())
			return res, attribute(cerr, m, et, cycle)
		}
		if cycle > limit+int64(n) {
			e := runx.Newf(runx.KindDeadlock, stage, "exceeded cycle limit %d over %d instructions (hp=%d/%d)", s.opts.DeadlockLimit, n, hp, np)
			e.Snap = runx.TakeSnapshot(cycle, int64(hp), int64(np), wd.Idle())
			return res, attribute(e, m, et, cycle)
		}

		// Drain this cycle's completion events: wake data-dependent
		// consumers and, under serialized models, the next branch.
		b := &st.buckets[cycle&st.mask]
		tally.calendarEvts += int64(len(*b))
		for _, p := range *b {
			for _, k := range s.wakeList[s.wakeOff[p]:s.wakeOff[p+1]] {
				if st.pending[k]--; st.pending[k] == 0 {
					st.push(s.d.path[k], k)
				}
			}
			if !mf {
				if nk := s.nextBranch[p]; nk >= 0 {
					if st.pending[nk]--; st.pending[nk] == 0 {
						st.push(s.d.path[nk], nk)
					}
				}
			}
			st.inFlight--
		}
		*b = (*b)[:0]

		if profile && hp != lastHP {
			ps := st.psBuf[:0]
			for d := 0; d < maxDepth && hp+d < np; d++ {
				bp := s.pathBranch[hp+d]
				if bp < 0 {
					ps = append(ps, 0.995)
					continue
				}
				ps = append(ps, s.profAcc[s.tr.Ins[bp].Static])
			}
			if len(ps) == 0 {
				ps = append(ps, 0.9)
			}
			st.psBuf = ps
			profTree = dee.BuildGreedyLocal(ps, et)
			lastHP = hp
		}

		depth := maxDepth
		if profile && profTree.Height() < depth {
			depth = profTree.Height()
		}
		if hp+depth > np-1 {
			depth = np - 1 - hp
		}
		st.known.Reset()
		st.unknown = st.unknown[:0]
		for r := 0; r < depth; r++ {
			if s.pathCorrect[hp+r] {
				st.known.Set(r)
				continue
			}
			f := st.finish[s.pathBranch[hp+r]]
			if f > 0 && cycle > f+penalty {
				st.known.Set(r)
			} else {
				st.unknown = append(st.unknown, int32(r))
			}
		}

		executed := 0
		ui := 0 // unknown[:ui] holds the depths < r
		fc, ff := 0, -1
		capHit := false
		relBuilt := false // relaxation tables built lazily, once per cycle
		for r := 0; r <= depth && !capHit; r++ {
			for ui < len(st.unknown) && int(st.unknown[ui]) < r {
				if fc == 0 {
					ff = int(st.unknown[ui])
				}
				fc++
				ui++
			}
			ap := hp + r
			rl := st.ready[ap]
			if len(rl) == 0 {
				continue
			}
			if len(rl) > tally.readyHW {
				tally.readyHW = len(rl)
			}
			baseCov := r == 0
			if !baseCov {
				if vectorCov {
					if profile {
						baseCov = profTree.ContainsBits(st.known, r)
					} else {
						baseCov = shape.CoveredBits(st.known, r)
					}
				} else {
					baseCov = shape.CoveredCounts(fc, ff, r)
				}
			}
			if !baseCov && m.CDMode == Restrictive {
				continue
			}
			if st.readyDirty[ap] {
				slices.Sort(rl)
				st.readyDirty[ap] = false
			}
			if !baseCov && !relBuilt {
				s.buildRelax(st, hp)
				relBuilt = true
			}
			keep := rl[:0]
			for i, k := range rl {
				kk := int(k)
				if !baseCov {
					// CD relaxation, exactly as in runLegacy: an unknown
					// branch this instruction is control independent of
					// (and whose wrong side cannot have written an
					// operand) does not count against coverage.
					fck, ffk := 0, -1
					if vectorCov {
						st.scratch.CopyFrom(st.known)
					}
					sm, ld := s.srcMask[kk], s.isLoad[kk]
					for uidx, ur := range st.unknown[:ui] {
						if j := st.relJ[uidx]; j >= 0 && j <= k {
							if sm&st.relRegs[uidx] == 0 && !(ld && st.relMem[uidx]) {
								if vectorCov {
									st.scratch.Set(int(ur))
								}
								continue // relaxed
							}
						}
						if fck == 0 {
							ffk = int(ur)
						}
						fck++
					}
					covOK := false
					if vectorCov {
						if profile {
							covOK = profTree.ContainsBits(st.scratch, r)
						} else {
							covOK = shape.CoveredBits(st.scratch, r)
						}
					} else {
						covOK = shape.CoveredCounts(fck, ffk, r)
					}
					if !covOK {
						keep = append(keep, k)
						continue
					}
				}
				f := cycle + int64(s.lat[kk]) - 1
				st.finish[kk] = f
				if f > st.pathDone[ap] {
					st.pathDone[ap] = f
				}
				st.pathRemaining[ap]--
				executed++
				if r == 0 && s.misp[kk] {
					res.RootResolvedMispredicts++
				}
				// Schedule the completion event only if someone listens:
				// data-dependent consumers, or the next branch under the
				// serialized models.
				if s.wakeOff[kk+1] > s.wakeOff[kk] || (!mf && s.nextBranch[kk] >= 0) {
					slot := (f + 1) & st.mask
					st.buckets[slot] = append(st.buckets[slot], k)
					st.inFlight++
				}
				if s.opts.PEs > 0 && executed >= s.opts.PEs {
					keep = append(keep, rl[i+1:]...)
					capHit = true
					break
				}
			}
			st.ready[ap] = keep
		}

		if executed > res.MaxPEs {
			res.MaxPEs = executed
		}
		tally.issued += int64(executed)

		// Advance the tree root past completed paths — but a resolved
		// misprediction holds the root until its restart penalty has
		// elapsed, so squashed work cannot slip into the root path's
		// unconditional coverage a cycle early.
		hpBefore := hp
		for hp < np && st.pathRemaining[hp] == 0 && st.pathDone[hp] <= cycle {
			if m.Strategy != dee.EE && !s.pathCorrect[hp] {
				if cycle+1 <= st.finish[s.pathBranch[hp]]+penalty {
					break
				}
			}
			hp++
		}
		if wd.Step(executed > 0) {
			e := runx.Newf(runx.KindDeadlock, stage, "no forward progress for %d cycles (hp=%d/%d)", wd.Idle(), hp, np)
			e.Snap = runx.TakeSnapshot(cycle, int64(hp), int64(np), wd.Idle())
			return res, attribute(e, m, et, cycle)
		}

		// Cycle-skip: nothing issued and the root did not move, so the
		// window state is frozen until the next event. Jump there, but
		// never past the cycle where the watchdog or the absolute cycle
		// limit would fire in the legacy loop.
		if executed == 0 && hp == hpBefore && hp < np {
			next := s.nextEventCycle(st, m, hp, depth, cycle, penalty)
			wdTrip := cycle + (limit - wd.Idle()) + 1
			if next == 0 || next > wdTrip {
				next = wdTrip
			}
			if lim := limit + int64(n) + 1; next > lim {
				next = lim
			}
			if skipped := next - cycle - 1; skipped > 0 {
				wd.StepN(skipped) // cannot trip: next is clamped to wdTrip
				cycle = next - 1
				tally.cycleSkips++
				tally.cyclesSkipped += skipped
			}
		}
	}

	res.Cycles = cycle
	res.Speedup = float64(res.Insts) / float64(cycle)
	res.AvgPEs = res.Speedup // one instruction per PE per cycle
	return res, nil
}

// nextEventCycle returns the earliest future cycle at which a frozen
// (nothing-issued, root-unmoved) window can change state: the next
// scheduled completion wakeup, the next known-direction transition of
// an unresolved mispredicted window branch, or the root path's release.
// 0 means no event is scheduled (the watchdog clamp then bounds the
// jump).
func (s *Sim) nextEventCycle(st *runState, m Model, hp, depth int, cycle, penalty int64) int64 {
	next := int64(0)
	cand := func(c int64) {
		if c > cycle && (next == 0 || c < next) {
			next = c
		}
	}
	if st.inFlight > 0 {
		ring := int64(len(st.buckets))
		for d := int64(1); d <= ring; d++ {
			if len(st.buckets[(cycle+d)&st.mask]) > 0 {
				cand(cycle + d)
				break
			}
		}
	}
	// A mispredicted window branch that has issued becomes "known" —
	// re-forming coverage along the actual path — at finish+penalty+1.
	for _, ur := range st.unknown {
		bp := s.pathBranch[hp+int(ur)]
		if f := st.finish[bp]; f > 0 {
			cand(f + penalty + 1)
		}
	}
	// The drained root path is released at pathDone, or — for a
	// mispredicted root under the non-EE strategies — once the
	// misprediction restart penalty has elapsed.
	if st.pathRemaining[hp] == 0 {
		t := st.pathDone[hp]
		if m.Strategy != dee.EE && !s.pathCorrect[hp] {
			if fp := st.finish[s.pathBranch[hp]] + penalty; fp > t {
				t = fp
			}
		}
		cand(t)
	}
	return next
}
