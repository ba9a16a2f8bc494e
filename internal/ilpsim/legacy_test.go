package ilpsim

import (
	"context"

	"deesim/internal/dee"
	"deesim/internal/runx"
	"deesim/internal/trace"
)

// legacyDeps returns the data dependences the legacy loop and the pull
// oracle read: those of tr, the trace s was prepared from, under s's
// memory-dependence mode. A Sim keeps them only as wakeup lists.
func legacyDeps(tr *trace.Trace, s *Sim) *trace.DataDeps {
	return tr.DataDeps(s.opts.StrictMemory)
}

// pullOracle is the Oracle as a pull-style dataflow pass: each
// instruction finishes its latency after the latest of its producers,
// read from the data dependences dd. Sim.Oracle pushes finish times
// along the wakeup lists instead; the two must agree.
func pullOracle(s *Sim, dd *trace.DataDeps) (cycles int64) {
	finish := make([]int64, s.n)
	for i := range finish {
		var ready int64
		for _, p := range [3]int32{dd.Rs[i], dd.Rt[i], dd.Mem[i]} {
			if p != noDep {
				ready = max(ready, finish[p])
			}
		}
		finish[i] = ready + int64(s.lat[i])
		cycles = max(cycles, finish[i])
	}
	return cycles
}

// nodeOf converts a known-direction prefix into a speculation-tree node:
// a known direction follows the predicted arc, an unknown one the
// not-predicted arc.
func nodeOf(buf []byte, vec []bool, r int) dee.Node {
	buf = buf[:r]
	for i := 0; i < r; i++ {
		if vec[i] {
			buf[i] = byte(dee.Pred)
		} else {
			buf[i] = byte(dee.NotPred)
		}
	}
	return dee.Node(buf)
}

// runLegacy is the retired scan-every-cycle inner loop: every simulated
// cycle rescans every unissued instruction in the window, reading the
// data dependences dd (legacyDeps) directly. It is the semantic
// reference the event scheduler is differentially tested against
// (TestSchedulerDifferential, FuzzSchedulerDifferential) and the
// baseline of the core perf gate's speedup_vs_legacy.
func (s *Sim) runLegacy(ctx context.Context, dd *trace.DataDeps, m Model, et int) (res Result, err error) {
	const stage = "ilpsim.Run"
	var cycle int64
	defer func() {
		if r := recover(); r != nil {
			err = attribute(runx.FromPanic(r, stage), m, et, cycle)
		}
	}()
	vectorCov := m.Strategy == dee.DEEPure || m.Strategy == dee.DEEProfile
	profile := m.Strategy == dee.DEEProfile

	shape, res, maxDepth := s.runSetup(m, et)

	np := len(s.pathBranch)
	n := s.n
	finish := make([]int64, n) // 0 = not issued; else completion cycle
	pathRemaining := make([]int32, np)
	pathStart := make([]int32, np+1) // path i covers [pathStart[i], pathStart[i+1])
	pathDone := make([]int64, np)    // completion cycle of the path's latest instruction
	for i := 0; i < n; i++ {
		pathRemaining[s.path[i]]++
	}
	for i, sz := range s.pathSize {
		pathStart[i+1] = pathStart[i] + sz
	}

	known := make([]bool, maxDepth)
	var unknown []int // window depths of unknown-direction branches
	nodeBuf := make([]byte, et+1)
	scratch := make([]bool, et+1)

	// DEE-profile: dynamic greedy tree over per-branch accuracies
	// (s.profAcc), rebuilt when the window root moves.
	var profTree *dee.Tree
	lastHP := -1
	covered := func(vec []bool, r int) bool {
		if profile {
			return profTree.Contains(nodeOf(nodeBuf, vec, r))
		}
		return shape.Covered(vec[:r:r], r)
	}

	hp := 0
	penalty := int64(s.opts.Penalty)
	tick := runx.NewTicker(4096)
	wd := runx.NewWatchdog(int64(s.opts.DeadlockLimit))

	// knownAt reports whether the branch terminating the given absolute
	// path has a usable direction at cycle c: predicted correctly,
	// resolved with the misprediction penalty elapsed, or the path is the
	// branchless trace tail.
	knownAt := func(absPath int, c int64) bool {
		b := s.pathBranch[absPath]
		if b < 0 {
			return true
		}
		if s.correct[s.branchOrd[b]] {
			return true
		}
		f := finish[b]
		return f > 0 && c > f+penalty
	}

	for hp < np {
		cycle++
		if cerr := tick.Check(ctx, stage); cerr != nil {
			cerr.Snap = runx.TakeSnapshot(cycle, int64(hp), int64(np), wd.Idle())
			return res, attribute(cerr, m, et, cycle)
		}
		if cycle > int64(s.opts.DeadlockLimit)+int64(n) {
			e := runx.Newf(runx.KindDeadlock, stage, "exceeded cycle limit %d over %d instructions (hp=%d/%d)", s.opts.DeadlockLimit, n, hp, np)
			e.Snap = runx.TakeSnapshot(cycle, int64(hp), int64(np), wd.Idle())
			return res, attribute(e, m, et, cycle)
		}

		if profile && hp != lastHP {
			ps := make([]float64, 0, maxDepth)
			for d := 0; d < maxDepth && hp+d < np; d++ {
				b := s.pathBranch[hp+d]
				if b < 0 {
					ps = append(ps, 0.995)
					continue
				}
				ps = append(ps, s.profAcc[s.pathStatic[hp+d]])
			}
			if len(ps) == 0 {
				ps = append(ps, 0.9)
			}
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
		known = known[:depth]
		unknown = unknown[:0]
		for r := 0; r < depth; r++ {
			known[r] = knownAt(hp+r, cycle)
			if !known[r] {
				unknown = append(unknown, r)
			}
		}

		executed := 0
		for r := 0; r <= depth; r++ {
			ap := hp + r
			if pathRemaining[ap] == 0 {
				continue
			}
			// Base coverage: unknown branches before r, first one's depth.
			fc, ff := 0, -1
			for _, ur := range unknown {
				if ur >= r {
					break
				}
				if fc == 0 {
					ff = ur
				}
				fc++
			}
			baseCov := r == 0
			if !baseCov {
				if vectorCov {
					baseCov = covered(known, r)
				} else {
					baseCov = shape.CoveredCounts(fc, ff, r)
				}
			}
			if !baseCov && m.CDMode == Restrictive {
				continue
			}
			for k := pathStart[ap]; k < pathStart[ap+1]; k++ {
				if finish[k] != 0 {
					continue
				}
				// Data dependencies: producers must finish strictly earlier.
				ready := true
				for _, p := range [3]int32{dd.Rs[k], dd.Rt[k], dd.Mem[k]} {
					if p != noDep && (finish[p] == 0 || finish[p] >= cycle) {
						ready = false
						break
					}
				}
				if !ready {
					continue
				}
				// Branch serialization for non-MF models.
				if m.CDMode != CDMF && s.branchOrd[k] > 0 {
					prev := s.branchPos[s.branchOrd[k]-1]
					if finish[prev] == 0 || finish[prev] >= cycle {
						continue
					}
				}
				if !baseCov {
					// CD relaxation: an unknown branch this instruction
					// is control independent of (the trace reached its
					// immediate postdominator before k — the static
					// window never squashed this instruction) does not
					// count against coverage. Total control dependence
					// still binds if the branch's wrong side may have
					// written one of this instruction's operands: the
					// producer instance is then ambiguous until
					// resolution.
					fck, ffk := 0, -1
					if vectorCov {
						copy(scratch[:r], known[:r])
					}
					for _, ur := range unknown {
						if ur >= r {
							break
						}
						bpos := s.pathBranch[hp+ur]
						if j := s.joinOf(bpos); j >= 0 && j <= k {
							w := s.pathWrong[hp+ur]
							if s.srcMask[k]&w.Regs == 0 && !(s.isLoad[k] && w.Mem) {
								if vectorCov {
									scratch[ur] = true
								}
								continue // relaxed
							}
						}
						if fck == 0 {
							ffk = ur
						}
						fck++
					}
					if vectorCov {
						if !covered(scratch, r) {
							continue
						}
					} else if !shape.CoveredCounts(fck, ffk, r) {
						continue
					}
				}
				finish[k] = cycle + int64(s.lat[k]) - 1
				if finish[k] > pathDone[ap] {
					pathDone[ap] = finish[k]
				}
				pathRemaining[ap]--
				executed++
				if ord := s.branchOrd[k]; ord >= 0 && !s.correct[ord] && r == 0 {
					res.RootResolvedMispredicts++
				}
				if s.opts.PEs > 0 && executed >= s.opts.PEs {
					break
				}
			}
			if s.opts.PEs > 0 && executed >= s.opts.PEs {
				break
			}
		}

		// Advance the tree root past completed paths — but a resolved
		// misprediction holds the root until its restart penalty has
		// elapsed, so squashed work cannot slip into the root path's
		// unconditional coverage a cycle early.
		if executed > res.MaxPEs {
			res.MaxPEs = executed
		}

		for hp < np && pathRemaining[hp] == 0 && pathDone[hp] <= cycle {
			if m.Strategy != dee.EE {
				if b := s.pathBranch[hp]; b >= 0 && !s.correct[s.branchOrd[b]] {
					if cycle+1 <= finish[b]+penalty {
						break
					}
				}
			}
			hp++
		}
		if wd.Step(executed > 0) {
			e := runx.Newf(runx.KindDeadlock, stage, "no forward progress for %d cycles (hp=%d/%d)", wd.Idle(), hp, np)
			e.Snap = runx.TakeSnapshot(cycle, int64(hp), int64(np), wd.Idle())
			return res, attribute(e, m, et, cycle)
		}
	}

	res.Cycles = cycle
	res.Speedup = float64(res.Insts) / float64(cycle)
	res.AvgPEs = res.Speedup // one instruction per PE per cycle
	return res, nil
}
