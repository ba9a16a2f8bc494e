// Event-driven ready-set scheduler for the ILP limit simulator.
//
// The legacy inner loop (runLegacy, kept in legacy_test.go as the
// differential oracle) rescans every unissued instruction in the window
// every simulated cycle: O(cycles × window instructions). This file
// replaces the scan with the classic event-driven machinery:
//
//   - per-instruction remaining-dependency counters (pending), seeded
//     from the precomputed dependency in-degrees plus one serialization
//     edge per non-first branch under the non-MF models;
//   - producer→consumer wakeup lists (Sim.wakeOff/wakeList, CSR form,
//     built once in NewContext): when an instruction's completion event
//     drains, it decrements its consumers' counters, and an instruction
//     whose counter hits zero joins the ready set;
//   - a two-level ready set: a bit per trace position (readyPos), and a
//     summary bit per non-zero word (readySum), cleared once it empties;
//   - a calendar (bucket ring) queue of completion events sized by the
//     largest instruction latency — an instruction issued at cycle c
//     with latency l finishes at c+l-1 and wakes consumers at c+l,
//     which is exactly the legacy "producers finish strictly earlier"
//     rule;
//   - cycle-skipping: when a cycle issues nothing and the window root
//     does not move, the machine state is frozen until the next event,
//     so simulated time jumps straight to the earliest of (a) the next
//     scheduled wakeup, (b) the next known-direction transition of an
//     issued mispredicted branch (finish+penalty+1), and
//     (c) the root path's release (pathDone, or the misprediction
//     restart hold finish+penalty). Jumps are clamped so the deadlock
//     watchdog and the absolute cycle limit trip at exactly the cycle
//     the legacy loop would have tripped at.
//
// Issue order inside a cycle matches the legacy loop — window paths in
// root-first order, instructions in trace order within a path — so the
// PEs cap selects the identical instruction set. Paths are contiguous in
// trace order, so that order is ascending trace position: a cycle walks
// the set bits of [pathStart[hp], pathStart[hp+lim+1]), skipping empty
// words by the summary, unsorted. Within-cycle issues never enable
// same-cycle dependents (a producer issued at cycle c has finish >= c,
// and dependents require finish < cycle), which is why
// wakeup-at-finish+1 reproduces the legacy dependency scan exactly.
//
// Coverage horizon. Coverage is also paid per event, not per window
// slot. The window's unknown-direction branches live in a deque of
// absolute path positions (runState.unk) that changes only when the
// root advances, the window extends past a new branch, or a
// mispredicted branch's known transition (finish+penalty+1, queued in
// runState.knownQ when the branch issues) comes due — the same events
// the cycle-skip already waits for. Under the closed-form shapes, base
// coverage is a prefix of the window whose end follows from the first
// two unknown branches alone (dee.Shape.CoveredDepth): SP stops at the
// first unknown branch, DEE at the second (or at the first when it sits
// past the DEE region, or at H), EE covers all of its LEE levels and so
// tracks no branches at all. Under the Restrictive models the ready-set
// walk ends at the horizon's last path. The tree-based strategies
// (DEEPure, DEEProfile) rebuild their known bitset from the deque each
// cycle and keep the per-path tree queries and relaxation.
//
// Control parking. Under the CD models a closed-form shape's ready
// instruction past the horizon is tested against the unknown branches
// in front of it, and an instruction the test leaves uncovered leaves
// the ready set and waits for the events that can change the answer.
// Let R be the unknown branches in front of instruction k (on window
// path ap) that k cannot relax past. SP covers k only when R is empty,
// so k waits on the deepest branch of R. DEE also covers k when R holds
// one branch and the side path reaches k; for DEE's closed form that is
// exactly when ap-hp <= H. So with |R| >= 2, k waits on the deepest and
// the second-deepest branch of R, and with |R| = 1 it waits on that
// branch and on the root reaching path ap-H (runState.rootWait).
// Whichever event comes first returns k to the ready set for one
// re-test; its twin entry on the other list goes stale and is skipped.
// Parking is exact because everything the test depends on is monotone
// while the instruction waits. Whether instruction k relaxes past
// unknown branch u is static: u's join <= k, and k reads nothing u's
// wrong side may write. R only shrinks: directions only become known,
// the root never passes an unknown branch under a non-EE shape, and the
// window grows only behind k's own path. ap-hp only falls. And while an
// unknown branch sits in front of a waiting k, the base horizon stays
// short of ap, so base coverage cannot cover it either. Until a waited
// event fires, k stays uncovered, and re-testing it every cycle would
// only re-derive that.
//
// Tree coverage checks run on dee.BitVec bitsets (Shape.CoveredBits,
// Tree.ContainsBits) instead of bool vectors, and all per-run buffers
// come from a package-level sync.Pool of arenas (runStates) so repeated
// runs — including the eight paper models fanned out concurrently over
// one Sim — allocate almost nothing.
package ilpsim

import (
	"context"
	"math"
	"math/bits"
	"sync"

	"deesim/internal/dee"
	"deesim/internal/runx"
)

// unkBranch is one unknown-direction window branch: the absolute path
// it terminates, with the static half of the CD relaxation test hoisted
// in when it enters the window.
type unkBranch struct {
	p    int32  // absolute path index
	join int32  // join position; math.MaxInt32 when unknown (relaxes nothing)
	regs uint32 // registers the wrong side may write
	mem  bool   // the wrong side may store
	wait int32  // head of the instructions parked on this branch; -1 when none
}

// relaxes reports whether instruction k, with source-register mask sm
// and load flag ld, is control independent of the branch and cannot
// have had an operand written by its wrong side — the legacy loop's CD
// relaxation. It depends on nothing that changes during a run.
func (u *unkBranch) relaxes(k int32, sm uint32, ld bool) bool {
	return u.join <= k && sm&u.regs == 0 && !(ld && u.mem)
}

// knownEvt schedules the cycle at which an issued mispredicted branch's
// direction becomes known (finish+penalty+1).
type knownEvt struct {
	at int64
	p  int32 // absolute path the branch terminates
}

// fifo is a slice-backed queue that reuses its storage across runs:
// popped slots are reclaimed by compaction when an append would
// otherwise reallocate.
type fifo[T any] struct {
	buf  []T
	head int
}

func (q *fifo[T]) live() []T { return q.buf[q.head:] }

func (q *fifo[T]) reset() { q.buf, q.head = q.buf[:0], 0 }

func (q *fifo[T]) push(v T) {
	if q.head > 0 && len(q.buf) == cap(q.buf) {
		q.buf, q.head = q.buf[:copy(q.buf, q.buf[q.head:])], 0
	}
	q.buf = append(q.buf, v)
}

func (q *fifo[T]) pop() {
	if q.head++; q.head == len(q.buf) {
		q.reset()
	}
}

// remove deletes live()[i].
func (q *fifo[T]) remove(i int) {
	i += q.head
	q.buf = append(q.buf[:i], q.buf[i+1:]...)
	if q.head == len(q.buf) {
		q.reset()
	}
}

// waitNode is one entry of a parking list: a waiting instruction (-1
// once its twin has woken it), the slab index of the next entry (-1
// ends the list), and the slab index of the twin entry on a second list
// the instruction waits on (-1 when it waits on one list only).
type waitNode struct{ k, next, twin int32 }

// runState is the per-run arena: every mutable buffer one RunContext
// call needs. Instances are recycled through runStates; all slices keep
// their capacity across runs, so steady-state runs allocate only what
// the parking lists and calendar buckets grow by.
type runState struct {
	// brFinish[p] is the completion cycle of path p's terminating branch,
	// written only when that branch is mispredicted and issues (0 until
	// then): the known transitions, the root hold and the cycle-skip ask
	// nothing else of an issued instruction.
	brFinish      []int64
	pending       []uint8   // remaining dependency (+serialization) count
	pathRemaining []int32   // unissued instructions per path
	pathDone      []int64   // completion cycle of the path's latest instruction
	readyPos      []uint64  // bit per trace position: dep-ready, unissued, unparked
	readySum      []uint64  // bit per readyPos word: the word is non-zero
	buckets       [][]int32 // calendar ring of completion events (producer positions)
	mask          int64     // len(buckets)-1; len is a power of two
	inFlight      int       // scheduled, undrained completion events

	// unk holds the unknown-direction branches of paths [hp, winEnd) in
	// ascending path order; knownQ the pending known transitions of
	// issued mispredicted branches, in ascending cycle order.
	unk    fifo[unkBranch]
	winEnd int
	knownQ fifo[knownEvt]
	// Control parking (SP and DEE under the CD models): an unknown
	// branch's wait list holds the instructions waiting for it to leave
	// unk, and rootWait[p] those waiting for the root to reach path p
	// (woken up to path rootHP). The lists live in one slab with a free
	// list, so parking memory follows the peak number of waiting
	// instructions, not the trace length.
	waitNodes []waitNode
	freeNode  int32 // head of the slab's free list; -1 when empty
	rootWait  []int32
	rootHP    int

	known   dee.BitVec // tree strategies: this cycle's known-direction bits
	scratch dee.BitVec
	psBuf   []float64 // profile-tree rebuild scratch
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

// runStates recycles runState arenas across runs, on any Sim: an arena
// holds nothing of the Sim it last served, and getRunState resets it
// for the next. The pool is package-level, not a Sim field, because the
// runtime keeps every pool used since the last GC reachable until the
// GC after next: a pool inside a Sim would keep the whole Sim, trace
// and tables included, alive that long after its last run.
var runStates sync.Pool

// getRunState fetches an arena from the pool and resets it for a run
// of model family si (the index into initPending and initReady) over np
// paths and window depths up to maxDepth, with a calendar ring of ring
// slots.
func (s *Sim) getRunState(si, np, maxDepth, ring int) *runState {
	st, _ := runStates.Get().(*runState)
	if st == nil {
		st = new(runState)
		mSimArenaAlloc.Inc()
	} else {
		mSimArenaReuse.Inc()
	}
	st.brFinish = growSlice(st.brFinish, np)
	clear(st.brFinish)
	st.pending = growSlice(st.pending, s.n)
	copy(st.pending, s.initPending[si])
	st.readyPos = append(st.readyPos[:0], s.initReady[si]...)
	st.readySum = growSlice(st.readySum, (len(st.readyPos)+63)/64)
	clear(st.readySum)
	for w, x := range st.readyPos {
		if x != 0 {
			st.readySum[w>>6] |= 1 << (uint(w) & 63)
		}
	}
	st.pathRemaining = growSlice(st.pathRemaining, np)
	copy(st.pathRemaining, s.pathSize)
	st.pathDone = growSlice(st.pathDone, np)
	clear(st.pathDone)
	st.waitNodes = st.waitNodes[:0]
	st.freeNode = -1
	st.rootWait = growSlice(st.rootWait, np)
	for i := range st.rootWait {
		st.rootWait[i] = -1
	}
	st.rootHP = 0
	st.buckets = growSlice(st.buckets, ring)
	for i := range st.buckets {
		st.buckets[i] = st.buckets[i][:0]
	}
	st.mask = int64(ring - 1)
	st.inFlight = 0
	st.unk.reset()
	st.winEnd = 0
	st.knownQ.reset()
	st.known = growSlice(st.known, (maxDepth+63)/64)
	st.scratch = growSlice(st.scratch, (maxDepth+63)/64)
	return st
}

// push adds trace position k to the ready set.
func (st *runState) push(k int32) {
	w := k >> 6
	st.readyPos[w] |= 1 << (uint(k) & 63)
	st.readySum[w>>6] |= 1 << (uint(w) & 63)
}

// unready takes trace position k out of the ready set, and its word out
// of the summary when the word empties.
func (st *runState) unready(k int) {
	w := k >> 6
	if st.readyPos[w] &^= 1 << (uint(k) & 63); st.readyPos[w] == 0 {
		st.readySum[w>>6] &^= 1 << (uint(w) & 63)
	}
}

// wait takes instruction k out of the ready set, adds it to the parking
// list headed by *head and returns its slab index.
func (st *runState) wait(head *int32, k int32) int32 {
	st.unready(int(k))
	i := st.freeNode
	if i >= 0 {
		st.freeNode = st.waitNodes[i].next
	} else {
		i = int32(len(st.waitNodes))
		st.waitNodes = append(st.waitNodes, waitNode{})
	}
	st.waitNodes[i] = waitNode{k: k, next: *head, twin: -1}
	*head = i
	return i
}

// waitEither parks k on two lists at once; the first to be woken
// returns it to the ready set.
func (st *runState) waitEither(a, b *int32, k int32) {
	i, j := st.wait(a, k), st.wait(b, k)
	st.waitNodes[i].twin, st.waitNodes[j].twin = j, i
}

// wake returns the waiting instructions of the list headed by *head to
// the ready set and empties it. An entry whose twin woke first is stale
// and only freed.
func (st *runState) wake(head *int32) {
	for i := *head; i >= 0; {
		nd := st.waitNodes[i]
		if nd.k >= 0 {
			st.push(nd.k)
			if nd.twin >= 0 {
				st.waitNodes[nd.twin].k = -1
			}
		}
		st.waitNodes[i].next = st.freeNode
		st.freeNode = i
		i = nd.next
	}
	*head = -1
}

// deepestUnrelaxed returns the index of the deepest of unk[:i] that
// instruction k cannot relax past, or -1 when it relaxes past them all.
func (s *Sim) deepestUnrelaxed(unk []unkBranch, i int, k int32) int {
	sm, ld := s.srcMask[k], s.isLoad[k]
	for i--; i >= 0 && unk[i].relaxes(k, sm, ld); i-- {
	}
	return i
}

// treeCovered is the CD coverage test for the tree strategies (tree is
// the profile tree under DEE-profile, nil otherwise): instruction k on
// window path ap is covered if the tree holds the path once every
// unknown branch in front of it that k relaxes past counts as known.
func (s *Sim) treeCovered(st *runState, shape dee.Shape, tree *dee.Tree, unk []unkBranch, k int32, ap, hp int) bool {
	sm, ld := s.srcMask[k], s.isLoad[k]
	st.scratch.CopyFrom(st.known)
	for ui := range unk {
		if int(unk[ui].p) >= ap {
			break
		}
		if unk[ui].relaxes(k, sm, ld) {
			st.scratch.Set(int(unk[ui].p) - hp)
		}
	}
	if tree != nil {
		return tree.ContainsBits(st.scratch, ap-hp)
	}
	return shape.CoveredBits(st.scratch, ap-hp)
}

// advanceKnown brings the unknown-branch deque up to date at the start
// of a cycle: due known transitions leave it, branches the root has
// passed are dropped, and the window's newly reachable branches join it
// (unless their direction is already known). Instructions parked on a
// branch that left, or on a path the root has reached, are woken.
func (s *Sim) advanceKnown(st *runState, hp, end int, cycle, penalty int64) {
	for q := st.knownQ.live(); len(q) > 0 && q[0].at <= cycle; q = st.knownQ.live() {
		p := q[0].p
		st.knownQ.pop()
		for i, u := range st.unk.live() {
			if u.p >= p {
				if u.p == p {
					st.wake(&st.unk.live()[i].wait)
					st.unk.remove(i)
				}
				break
			}
		}
	}
	for u := st.unk.live(); len(u) > 0 && int(u[0].p) < hp; u = st.unk.live() {
		st.wake(&u[0].wait)
		st.unk.pop()
	}
	for st.rootHP < hp {
		st.rootHP++
		st.wake(&st.rootWait[st.rootHP])
	}
	st.winEnd = max(st.winEnd, hp)
	for ; st.winEnd < end; st.winEnd++ {
		p := st.winEnd
		if s.pathCorrect[p] {
			continue
		}
		if f := st.brFinish[p]; f > 0 && cycle > f+penalty {
			continue
		}
		u := unkBranch{p: int32(p), join: s.pathJoin[p], wait: -1}
		if u.join < 0 {
			u.join = math.MaxInt32
		} else {
			u.regs, u.mem = s.pathWrong[p].Regs, s.pathWrong[p].Mem
		}
		st.unk.push(u)
	}
}

// queueKnown records that the issued mispredicted branch ending path p
// becomes known at cycle at (its finish+penalty+1). Branch latencies
// are uniform, so events almost always arrive in order; the insertion
// walk keeps the queue sorted when they do not.
func (st *runState) queueKnown(p int32, at int64) {
	st.knownQ.push(knownEvt{at: at, p: p})
	q := st.knownQ.live()
	for i := len(q) - 1; i > 0 && q[i-1].at > q[i].at; i-- {
		q[i-1], q[i] = q[i], q[i-1]
	}
}

// runEvent is the event-driven scheduler behind RunContext. It produces
// cycle-for-cycle identical Results to the tests' runLegacy (asserted by
// the differential tests and the fuzz target in sched_test.go).
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
	// EE's coverage and root release ignore branch directions, so it
	// tracks no unknown branches at all.
	track := m.Strategy != dee.EE

	shape, res, maxDepth := s.runSetup(m, et)

	np := len(s.pathBranch)
	n := s.n
	penalty := int64(s.opts.Penalty)
	limit := int64(s.opts.DeadlockLimit)

	// Dependency counters and the ready set start from the precomputed
	// per-family tables. Under the serialized (non-MF) models each branch
	// after the first carries one extra pending edge, released when the
	// previous branch's completion event drains.
	si := 0
	if !mf {
		si = 1
	}
	st := s.getRunState(si, np, maxDepth, nextPow2(int(s.maxLat)+1))
	defer runStates.Put(st)

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
					st.push(k)
				}
			}
			if !mf {
				if nk := s.nextBranch[p]; nk >= 0 {
					if st.pending[nk]--; st.pending[nk] == 0 {
						st.push(nk)
					}
				}
			}
			st.inFlight--
		}
		*b = (*b)[:0]

		if track {
			s.advanceKnown(st, hp, min(hp+maxDepth, np-1), cycle, penalty)
		}

		if profile && hp != lastHP {
			ps := st.psBuf[:0]
			for d := 0; d < maxDepth && hp+d < np; d++ {
				if s.pathBranch[hp+d] < 0 {
					ps = append(ps, 0.995)
					continue
				}
				ps = append(ps, s.profAcc[s.pathStatic[hp+d]])
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

		// cov is the base-coverage horizon: paths hp..hp+cov are covered
		// outright. lim is the deepest path that can issue at all.
		unk := st.unk.live()
		cov, lim := depth, depth
		if vectorCov {
			// Tree shapes: known bits for depths 0..depth-1 (bits at or
			// past depth are never read), checked per path below.
			for w := range st.known {
				st.known[w] = ^uint64(0)
			}
			for _, u := range unk {
				if r := int(u.p) - hp; r < depth {
					st.known.Clear(r)
				}
			}
		} else {
			first, second := -1, -1
			if len(unk) > 0 {
				first = int(unk[0].p) - hp
			}
			if len(unk) > 1 {
				second = int(unk[1].p) - hp
			}
			cov = min(shape.CoveredDepth(first, second), depth)
			if m.CDMode == Restrictive {
				lim = cov
			}
		}

		// Walk the ready positions of paths hp..hp+lim in ascending order,
		// reloading per-path state only at a path end. Nothing before lo is
		// ready (the root passes only fully issued paths), so only the
		// upper end is masked.
		executed, visited := 0, 0
		capHit := false
		front := 0 // cursor: unk[:front] lies in front of the path being visited
		lo, hi := int(s.pathStart[hp]), int(s.pathStart[hp+lim+1])-1
		var ap, r, pathEnd int
		var baseCov bool
		for sw := lo >> 12; sw <= hi>>12 && !capHit; sw++ {
			sum := st.readySum[sw]
			if sw == hi>>12 {
				sum &= ^uint64(0) >> (63 - uint(hi>>6)&63)
			}
			tally.readyWords++
			for ; sum != 0 && !capHit; sum &= sum - 1 {
				w := sw<<6 | bits.TrailingZeros64(sum)
				word := st.readyPos[w]
				if w == hi>>6 {
					word &= ^uint64(0) >> (63 - uint(hi)&63)
				}
				tally.readyWords++
				for ; word != 0; word &= word - 1 {
					k := w<<6 | bits.TrailingZeros64(word)
					visited++
					if k >= pathEnd {
						ap = int(s.path[k])
						pathEnd, r = int(s.pathStart[ap+1]), ap-hp
						baseCov = r <= cov
						if vectorCov && r > 0 {
							if profile {
								baseCov = profTree.ContainsBits(st.known, r)
							} else {
								baseCov = shape.CoveredBits(st.known, r)
							}
						}
						if !baseCov {
							for front < len(unk) && int(unk[front].p) < ap {
								front++
							}
						}
					}
					if !baseCov {
						if vectorCov && m.CDMode == Restrictive {
							continue // the tree leaves the whole path uncovered
						}
						tally.retests++
						if vectorCov {
							if !s.treeCovered(st, shape, profTree, unk, int32(k), ap, hp) {
								continue
							}
						} else if d := s.deepestUnrelaxed(unk, front, int32(k)); d >= 0 {
							// SP covers k only when it relaxes past every
							// unknown branch in front of it, DEE also when one
							// remains and ap-hp <= H; else k waits (see above).
							if shape.Strategy == dee.SP {
								st.wait(&unk[d].wait, int32(k))
								continue
							}
							if d2 := s.deepestUnrelaxed(unk, d, int32(k)); d2 >= 0 {
								st.waitEither(&unk[d].wait, &unk[d2].wait, int32(k))
								continue
							}
							if !shape.CoveredCounts(1, int(unk[d].p)-hp, r) {
								st.waitEither(&unk[d].wait, &st.rootWait[ap-shape.H], int32(k))
								continue
							}
						}
					}
					st.unready(k)
					f := cycle + int64(s.lat[k]) - 1
					if f > st.pathDone[ap] {
						st.pathDone[ap] = f
					}
					st.pathRemaining[ap]--
					executed++
					if s.misp[k] {
						// A branch terminates the path it sits on.
						st.brFinish[ap] = f
						if r == 0 {
							res.RootResolvedMispredicts++
						}
						if track {
							st.queueKnown(int32(ap), f+penalty+1)
						}
					}
					// Schedule the completion event only if someone listens:
					// data-dependent consumers, or the next branch under the
					// serialized models.
					if s.wakeOff[k+1] > s.wakeOff[k] || (!mf && s.nextBranch[k] >= 0) {
						slot := (f + 1) & st.mask
						st.buckets[slot] = append(st.buckets[slot], int32(k))
						st.inFlight++
					}
					if s.opts.PEs > 0 && executed >= s.opts.PEs {
						capHit = true
						break
					}
				}
			}
		}
		tally.readyHW = max(tally.readyHW, visited)

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
				if cycle+1 <= st.brFinish[hp]+penalty {
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
			next := s.nextEventCycle(st, m, hp, cycle, penalty)
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
// scheduled completion wakeup, the next queued known-direction
// transition, or the root path's release. 0 means no event is
// scheduled (the watchdog clamp then bounds the jump).
func (s *Sim) nextEventCycle(st *runState, m Model, hp int, cycle, penalty int64) int64 {
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
	// An issued mispredicted branch becomes "known" — re-forming
	// coverage along the actual path — at finish+penalty+1.
	if q := st.knownQ.live(); len(q) > 0 {
		cand(q[0].at)
	}
	// The drained root path is released at pathDone, or — for a
	// mispredicted root under the non-EE strategies — once the
	// misprediction restart penalty has elapsed.
	if st.pathRemaining[hp] == 0 {
		t := st.pathDone[hp]
		if m.Strategy != dee.EE && !s.pathCorrect[hp] {
			if fp := st.brFinish[hp] + penalty; fp > t {
				t = fp
			}
		}
		cand(t)
	}
	return next
}
