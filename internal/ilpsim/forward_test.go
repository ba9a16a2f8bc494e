package ilpsim

import (
	"context"
	"fmt"
	"testing"
	"time"

	"deesim/internal/bench"
	"deesim/internal/dee"
	"deesim/internal/predictor"
	"deesim/internal/runx"
	"deesim/internal/trace"
)

// closedFormModels are the models RunContext sends to the forward pass
// when there is no PEs cap.
var closedFormModels = []Model{ModelDEECDMF, ModelSPCDMF, ModelDEECD, ModelSPCD, ModelDEE, ModelSP, ModelEE}

// TestForwardMatchesEventOnBenchInputs runs the forward pass against
// the event kernel on every bench input (capped at 60k instructions),
// for every closed-form model at shallow, odd and deep ETs, under
// penalties 0, 1 and 3 and under realistic latencies. The two are
// independent algorithms — one a max-plus recurrence in trace order,
// the other a cycle-by-cycle simulation — so any drift is a bug in one
// of them. Short mode keeps two inputs.
func TestForwardMatchesEventOnBenchInputs(t *testing.T) {
	optionSets := []struct {
		name string
		opts Options
	}{
		{"penalty0", Options{Penalty: 0}},
		{"penalty1", Options{Penalty: 1}},
		{"penalty3", Options{Penalty: 3}},
		{"realistic", Options{Penalty: 1, Lat: RealisticLatencies()}},
	}
	inputs := 0
	for _, w := range bench.All() {
		for _, in := range w.Inputs {
			inputs++
			if testing.Short() && inputs > 2 {
				continue
			}
			prog, err := in.Build(1)
			if err != nil {
				t.Fatal(err)
			}
			tr, err := trace.Record(prog, 60_000)
			if err != nil {
				t.Fatal(err)
			}
			label := w.Name + "/" + in.Name
			t.Run(label, func(t *testing.T) {
				t.Parallel()
				for _, os := range optionSets {
					s := MustNew(tr, predictor.NewTwoBit(), os.opts)
					for _, m := range closedFormModels {
						for _, et := range []int{1, 2, 3, 8, 64, 256} {
							event, eerr := s.runEvent(context.Background(), m, et)
							fwd, ferr := s.runForward(context.Background(), m, et)
							if eerr != nil || ferr != nil {
								t.Fatalf("%s %v ET=%d: event=%v forward=%v", os.name, m, et, eerr, ferr)
							}
							if fwd != event {
								t.Errorf("%s %v ET=%d: result drift:\n  event:   %+v\n  forward: %+v", os.name, m, et, event, fwd)
							}
						}
					}
				}
			})
		}
	}
	if inputs != 8 {
		t.Errorf("%d bench inputs, want 8", inputs)
	}
}

// wrongPredictor mispredicts every branch its inner predictor would
// have predicted right, and the other way round.
type wrongPredictor struct{ predictor.Predictor }

func (p wrongPredictor) Predict(pc int32) bool { return !p.Predictor.Predict(pc) }

// sameFailure fails unless the event kernel's error and the forward
// pass's carry the same stage, kind, message, attribution and snapshot
// coordinates (the heap and goroutine fields, which the full error text
// prints, are taken when each run fails, so they may differ).
func sameFailure(t *testing.T, label string, eerr, ferr error) {
	t.Helper()
	ee, ok1 := runx.As(eerr)
	fe, ok2 := runx.As(ferr)
	if !ok1 || !ok2 {
		t.Fatalf("%s: want two *runx.Error, got event=%v forward=%v", label, eerr, ferr)
	}
	if ee.Err.Error() != fe.Err.Error() || ee.Stage != fe.Stage || ee.Kind != fe.Kind || ee.Model != fe.Model || ee.ET != fe.ET || ee.Cycle != fe.Cycle {
		t.Errorf("%s: error drift:\n  event:   %v (cycle %d)\n  forward: %v (cycle %d)", label, eerr, ee.Cycle, ferr, fe.Cycle)
	}
	if ee.Snap == nil || fe.Snap == nil {
		t.Fatalf("%s: missing snapshot: event=%v forward=%v", label, ee.Snap, fe.Snap)
	}
	es, fs := *ee.Snap, *fe.Snap
	if es.Cycle != fs.Cycle || es.Progress != fs.Progress || es.Total != fs.Total || es.Idle != fs.Idle {
		t.Errorf("%s: snapshot drift:\n  event:   %v\n  forward: %v", label, &es, &fs)
	}
}

// TestForwardFailsLikeEvent holds the forward pass to the event
// kernel's failures: on runs that stall (every branch mispredicted,
// long restart penalties, small deadlock limits) both must report the
// same watchdog or cycle-limit error at the same cycle, and on a
// context cancelled or past its deadline before the run both must stop
// at cycle 1. The stalls include one whose penalty dwarfs the deadlock
// limit, which the pass must find without keeping a count per stalled
// cycle.
func TestForwardFailsLikeEvent(t *testing.T) {
	prog, err := bench.BuildSynthetic(bench.SyntheticConfig{Iterations: 200, BranchesPerIter: 4, Bias: 70, Seed: 5, Work: 3})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trace.Record(prog, 8_000)
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]int{}
	for _, c := range []struct{ penalty, limit int }{{100_000, 256}, {300, 256}, {40, 64}, {3, 4}} {
		s := MustNew(tr, wrongPredictor{predictor.NewTwoBit()}, Options{Penalty: c.penalty, DeadlockLimit: c.limit})
		for _, m := range closedFormModels {
			for _, et := range []int{1, 4, 64} {
				label := fmt.Sprintf("penalty %d limit %d %v ET=%d", c.penalty, c.limit, m, et)
				event, eerr := s.runEvent(context.Background(), m, et)
				fwd, ferr := s.runForward(context.Background(), m, et)
				if (eerr == nil) != (ferr == nil) {
					t.Fatalf("%s: event=%v forward=%v", label, eerr, ferr)
				}
				if eerr == nil {
					if fwd != event {
						t.Errorf("%s: result drift:\n  event:   %+v\n  forward: %+v", label, event, fwd)
					}
					continue
				}
				sameFailure(t, label, eerr, ferr)
				if re, _ := runx.As(eerr); re.Kind == runx.KindDeadlock {
					kinds[re.Err.Error()[:12]]++
				}
			}
		}
	}
	if kinds["no forward p"] == 0 || kinds["exceeded cyc"] == 0 {
		t.Errorf("stalls ended as %v; want both watchdog trips and cycle-limit errors", kinds)
	}

	s := MustNew(tr, predictor.NewTwoBit(), DefaultOptions())
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	expired, cancel2 := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel2()
	for _, ctx := range []context.Context{canceled, expired} {
		for _, m := range closedFormModels {
			_, eerr := s.runEvent(ctx, m, 8)
			_, ferr := s.runForward(ctx, m, 8)
			sameFailure(t, fmt.Sprintf("%v %v", context.Cause(ctx), m), eerr, ferr)
			if re, ok := runx.As(ferr); !ok || re.Cycle != 1 {
				t.Errorf("%v: a run under a dead context failed at %v, want cycle 1", m, ferr)
			}
		}
	}
}

// unlimitedScan is the unlimited pass as it was before the gate set,
// without its 512-gate cap: under the CD models every instruction scans
// every pending gate, dropping those joined with an empty wrong-side
// write set; under Restrictive every gate binds, so the two latest so
// far are kept. It is the reference TestUnlimitedMatchesScan holds the
// gate set to.
func unlimitedScan(s *Sim, m Model) Result {
	res := s.resultHeader(m, 0)
	kt := s.kernel()
	type scanGate struct {
		relaxRule
		time int64
	}
	var gates []scanGate
	var rg1, rg2 int64
	finish := make([]int64, s.n)
	penalty := int64(s.opts.Penalty)
	var prevBr, maxc int64
	for k := 0; k < s.n; k++ {
		ready := finish[k]
		if m.Strategy != dee.EE {
			g1, g2 := rg1, rg2
			live := gates[:0]
			for _, g := range gates {
				if g.join <= int32(k) && g.regs == 0 && !g.mem {
					continue
				}
				live = append(live, g)
				if g.relaxes(int32(k), s.srcMask[k], s.isLoad[k]) {
					continue
				}
				if g.time > g1 {
					g1, g2 = g.time, g1
				} else if g.time > g2 {
					g2 = g.time
				}
			}
			gates = live
			if m.Strategy == dee.DEE {
				g1 = g2
			}
			ready = max(ready, g1)
		}
		isBr := s.pathBranch[kt.path[k]] == int32(k)
		if isBr && m.CDMode != CDMF {
			ready = max(ready, prevBr)
		}
		f := ready + int64(s.lat[k])
		maxc = max(maxc, f)
		for _, c := range kt.wakeList[kt.wakeOff[k]:kt.wakeOff[k+1]] {
			finish[c] = max(finish[c], f)
		}
		if isBr {
			prevBr = f
			if gt := f + penalty; m.Strategy != dee.EE && kt.misp[k] {
				if m.CDMode != Restrictive {
					gates = append(gates, scanGate{s.relaxRuleOf(int(kt.path[k])), gt})
				} else if gt > rg1 {
					rg1, rg2 = gt, rg1
				} else if gt > rg2 {
					rg2 = gt
				}
			}
		}
	}
	res.Cycles = maxc
	res.Speedup = float64(res.Insts) / float64(maxc)
	res.AvgPEs = res.Speedup
	return res
}

// TestUnlimitedMatchesScan holds the unlimited pass (RunUnlimited, the
// forward pass without a window) to the exhaustive gate scan on every
// bench input (capped at 60k instructions; two in short mode) and on
// synthetic traces, for every closed-form model, under unit and
// realistic latencies.
func TestUnlimitedMatchesScan(t *testing.T) {
	var trs []*trace.Trace
	for _, w := range bench.All() {
		for _, in := range w.Inputs {
			if testing.Short() && len(trs) == 2 {
				break
			}
			prog, err := in.Build(1)
			if err != nil {
				t.Fatal(err)
			}
			tr, err := trace.Record(prog, 60_000)
			if err != nil {
				t.Fatal(err)
			}
			trs = append(trs, tr)
		}
	}
	for seed := uint32(1); seed <= 4; seed++ {
		prog, err := bench.BuildSynthetic(bench.SyntheticConfig{Iterations: 300, BranchesPerIter: 1 + int(seed), Bias: 50 + 10*int(seed), Seed: seed, Work: int(seed)})
		if err != nil {
			t.Fatal(err)
		}
		tr, err := trace.Record(prog, 20_000)
		if err != nil {
			t.Fatal(err)
		}
		trs = append(trs, tr)
	}
	for i, tr := range trs {
		t.Run(fmt.Sprint(i), func(t *testing.T) {
			t.Parallel()
			for _, opts := range []Options{DefaultOptions(), {Penalty: 3, Lat: RealisticLatencies()}} {
				s := MustNew(tr, predictor.NewTwoBit(), opts)
				for _, m := range closedFormModels {
					got, err := s.RunUnlimited(m)
					if err != nil {
						t.Fatal(err)
					}
					if want := unlimitedScan(s, m); got != want {
						t.Errorf("penalty %d %v: unlimited drift:\n  scan:    %+v\n  forward: %+v", opts.Penalty, m, want, got)
					}
				}
			}
		})
	}
}

// FuzzUnlimitedMatchesScan holds unlimited mode to the exhaustive gate
// scan (unlimitedScan) on synthetic traces whose shape, bias and length
// are fuzz-controlled, for every closed-form model, under unit or
// realistic latencies and a fuzzed penalty. The scan pushes finish
// times along the event kernel's wakeup lists; the pass pulls them from
// the producer table.
func FuzzUnlimitedMatchesScan(f *testing.F) {
	f.Add(uint16(40), uint8(4), uint8(88), uint32(0x5e5e), uint8(3), uint16(3000), uint8(1), false)
	f.Add(uint16(120), uint8(2), uint8(55), uint32(0xdead), uint8(0), uint16(6000), uint8(0), true)
	f.Add(uint16(299), uint8(8), uint8(60), uint32(7), uint8(6), uint16(6000), uint8(3), false)
	f.Add(uint16(10), uint8(1), uint8(99), uint32(99), uint8(1), uint16(17), uint8(8), true)
	f.Fuzz(func(t *testing.T, iters uint16, branches, bias uint8, seed uint32, work uint8, limit uint16, penalty uint8, realistic bool) {
		sc := bench.SyntheticConfig{
			Iterations:      1 + int(iters)%300,
			BranchesPerIter: 1 + int(branches)%8,
			Bias:            int(bias) % 101,
			Seed:            seed,
			Work:            int(work) % 17,
		}
		prog, err := bench.BuildSynthetic(sc)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := trace.Record(prog, 1+uint64(limit)%6000)
		if err != nil {
			t.Fatal(err)
		}
		opts := Options{Penalty: int(penalty) % 9}
		if realistic {
			opts.Lat = RealisticLatencies()
		}
		s := MustNew(tr, predictor.NewTwoBit(), opts)
		for _, m := range closedFormModels {
			got, err := s.RunUnlimited(m)
			if err != nil {
				t.Fatal(err)
			}
			if want := unlimitedScan(s, m); got != want {
				t.Errorf("%+v penalty %d %v: unlimited drift:\n  scan:    %+v\n  forward: %+v", sc, opts.Penalty, m, want, got)
			}
		}
	})
}
