package ilpsim

import (
	"context"

	"deesim/internal/cfg"
	"deesim/internal/dee"
	"deesim/internal/runx"
)

// RunUnlimited simulates a model with unconstrained branch-path
// resources — the Lam & Wilson infinite-resource setting the paper
// compares against (§1.2: "Lam and Wilson simulated many abstract models
// of execution with unlimited resources ... For comparison purposes, the
// SP variants are simulated herein, but with constrained resources").
//
// Without a window the schedule is a pure constraint graph, computed in
// one forward pass:
//
//   - data: producers must finish first (unit or configured latencies);
//   - branch serialization (non-MF): each conditional branch finishes
//     strictly after its predecessor branch;
//   - misprediction gates: a mispredicted branch u delays instructions
//     in its squash scope until finish(u)+penalty. Under SP every
//     pending mispredict gates everything after it; under EE nothing is
//     gated (both sides are always in the infinite tree — with CD-MF
//     this reproduces the Oracle exactly); under DEE the infinite
//     triangle covers the paths beyond a single pending mispredict, so
//     an instruction is delayed only by the *second* most binding gate.
//     The CD models exempt control-independent, operand-unambiguous
//     instructions exactly as in the windowed simulator.
//
// Data readiness comes from the event scheduler's wakeup lists: a
// producer precedes its consumers in the trace, so when instruction k is
// reached every producer has already pushed its finish time to k.
//
// The CD models' gate bookkeeping is not exact: a gate stops counting
// once control passes its join with an empty wrong-side write set, but
// once more than 512 gates are pending only the newest 256 are kept, on
// the assumption that older gates trail the data-readiness frontier. On
// the shipped inputs the cap changes no printed table; nothing proves
// that it cannot. ROADMAP item 1 replaces the scan with an exact
// structure and removes the cap.
func (s *Sim) RunUnlimited(m Model) (Result, error) {
	return s.RunUnlimitedContext(context.Background(), m)
}

// RunUnlimitedContext is RunUnlimited with cooperative cancellation and
// panic isolation: the forward pass checks ctx every few thousand
// instructions, and a panic is recovered at this boundary into a typed
// *runx.Error with model attribution.
func (s *Sim) RunUnlimitedContext(ctx context.Context, m Model) (res Result, err error) {
	const stage = "ilpsim.RunUnlimited"
	defer func() {
		if r := recover(); r != nil {
			err = attribute(runx.FromPanic(r, stage), m, 0, 0)
		}
	}()
	if m.Strategy == dee.DEEPure || m.Strategy == dee.DEEProfile {
		return Result{}, attribute(runx.Newf(runx.KindInvalidInput, stage, "unlimited mode supports SP, EE and DEE"), m, 0, 0)
	}
	tick := runx.NewTicker(4096)
	n := s.n
	res = Result{
		Model: m, ET: 0, Insts: n,
		Branches: len(s.branchPos), Accuracy: s.accuracy,
	}
	for _, ok := range s.correct {
		if !ok {
			res.Mispredicts++
		}
	}

	// finish[k] is k's data-ready time until k is reached, its finish
	// time after.
	finish := make([]int64, n)
	penalty := int64(s.opts.Penalty)
	var prevBranchFinish int64
	var maxc int64

	// Active misprediction gates. Under the restrictive model every gate
	// applies to everything after it forever, so only the two most
	// binding times are needed (incremental, exact). The CD models keep
	// a pruned list because gates stop applying at their joins.
	type gate struct {
		wrong cfg.WriteSet // the mispredicted branch's wrong-side writes
		join  int32        // -1: unknown ipdom (never joins)
		time  int64        // finish(u) + penalty: squashed work starts after this
	}
	var gates []gate
	var rg1, rg2 int64 // restrictive-mode top-2 gate times

	for k := 0; k < n; k++ {
		if cerr := tick.Check(ctx, stage); cerr != nil {
			return Result{}, attribute(cerr, m, 0, int64(k))
		}
		// Data readiness: start > producer finishes.
		ready := finish[k]

		// Misprediction gates.
		if m.Strategy != dee.EE {
			var g1, g2 int64 // most binding, second most binding
			if m.CDMode == Restrictive {
				g1, g2 = rg1, rg2
			} else {
				// Prune gates that joined with an empty wrong-side write
				// set: they can never apply again.
				live := gates[:0]
				for _, g := range gates {
					if g.join >= 0 && g.join <= int32(k) {
						if g.wrong.Regs == 0 && !g.wrong.Mem {
							continue
						}
					}
					live = append(live, g)
				}
				gates = live
				for _, g := range gates {
					applies := true
					if g.join >= 0 && g.join <= int32(k) {
						// Control independent; still binds only if the
						// wrong side may write one of k's operands.
						if s.srcMask[k]&g.wrong.Regs == 0 && !(s.isLoad[k] && g.wrong.Mem) {
							applies = false
						}
					}
					if !applies {
						continue
					}
					if g.time > g1 {
						g1, g2 = g.time, g1
					} else if g.time > g2 {
						g2 = g.time
					}
				}
			}
			gateTime := g1
			if m.Strategy == dee.DEE {
				// The infinite DEE triangle eagerly executes through one
				// pending misprediction: only the second gate binds.
				gateTime = g2
			}
			if gateTime > ready {
				ready = gateTime
			}
		}

		// Branch serialization.
		isBr := s.branchOrd[k] >= 0
		if isBr && m.CDMode != CDMF {
			if prevBranchFinish > ready {
				ready = prevBranchFinish
			}
		}

		f := ready + int64(s.lat[k])
		finish[k] = f
		maxc = max(maxc, f)
		for _, c := range s.wakeList[s.wakeOff[k]:s.wakeOff[k+1]] {
			finish[c] = max(finish[c], f)
		}

		if isBr {
			prevBranchFinish = f
			// EE reads no gates, so it records none.
			if m.Strategy != dee.EE && !s.correct[s.branchOrd[k]] {
				gt := f + penalty
				if m.CDMode == Restrictive {
					if gt > rg1 {
						rg1, rg2 = gt, rg1
					} else if gt > rg2 {
						rg2 = gt
					}
				} else {
					gates = append(gates, gate{wrong: s.pathWrong[s.branchOrd[k]], join: s.joinOf(int32(k)), time: gt})
					if len(gates) > 512 {
						// Safety bound: keep the newest gates; older
						// ones are dominated in practice (their times
						// trail the data-readiness frontier).
						gates = append(gates[:0], gates[len(gates)-256:]...)
					}
				}
			}
		}
	}

	res.Cycles = maxc
	res.Speedup = float64(n) / float64(maxc)
	res.AvgPEs = res.Speedup
	return res, nil
}
