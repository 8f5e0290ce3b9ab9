package core

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/cpu"
	"repro/internal/fault"
	"repro/internal/isa"
	"repro/internal/lift"
	"repro/internal/module"
)

// runSuiteAgainst is the scalar oracle the packed replay is held to: it
// builds the failing netlist (fault.FailingNetlist, the exported
// artefact), puts it under a netlist-backed CPU, runs the whole image
// and classifies the halt with the production mapping.
func (w *Workflow) runSuiteAgainst(ctx context.Context, img *isa.Image, spec fault.Spec, ownIdx int) (Detection, error) {
	failing := fault.FailingNetlist(w.Module.Netlist, spec)
	c := cpu.New(MemSize)
	*c.Unit(w.Module.Name) = module.NewDriverOn(w.Module, failing)
	c.Load(img)
	halt := c.RunCtx(ctx, MaxCycles)
	return detectionOf(halt.String(), lift.FailedCase(c.X[isa.S1]), ownIdx)
}

// scalarReplay is replaySuite by the book: one failing netlist and one
// full replay per (failure mode, pair), in the same order.
func (w *Workflow) scalarReplay(t *testing.T, img *isa.Image, pairs []suitePair) []Detection {
	t.Helper()
	var dets []Detection
	for _, mode := range failureModes {
		for _, p := range pairs {
			spec := fault.Spec{Type: p.Type, Start: p.Pair.Start, End: p.Pair.End, C: mode}
			d, err := w.runSuiteAgainst(context.Background(), img, spec, p.OwnIdx)
			if err != nil {
				t.Fatalf("oracle %s: %v", spec.Name(w.Module.Netlist), err)
			}
			dets = append(dets, d)
		}
	}
	return dets
}

// TestQualityPackedMatchesScalar is the differential the Table 6/7 path
// rests on: for every (failure mode, pair) the packed replay reports the
// same Detection as a scalar replay of the failing netlist — per spec,
// not per row — on the Vega image, two random images and a shuffled
// suite (whose own-case indices move, so Before/Later are exercised),
// at Parallelism 1 and 8.
func TestQualityPackedMatchesScalar(t *testing.T) {
	units := []struct {
		name string
		lift func() *Workflow
	}{
		{"ALU", func() *Workflow { return liftedALU(t, 1) }},
		{"FPU", func() *Workflow {
			w := NewFPU(Config{Parallelism: 1})
			if _, err := w.ErrorLifting(); err != nil {
				t.Fatal(err)
			}
			return w
		}},
	}
	for _, u := range units {
		t.Run(u.name, func(t *testing.T) {
			if u.name == "FPU" && testing.Short() {
				t.Skip("FPU lift plus 468 scalar gate-level replays")
			}
			w := u.lift()
			vega := w.Suite()
			shuffled := ShuffledSuite(vega, 1)
			cases := []struct {
				name  string
				suite *lift.Suite
				pairs []suitePair
			}{
				{"vega", vega, suitePairs(vega)},
				{"random1000", lift.RandomSuite(w.Module, len(vega.Cases), 1000), suitePairs(vega)},
				{"random1001", lift.RandomSuite(w.Module, len(vega.Cases), 1001), suitePairs(vega)},
				{"shuffled", shuffled, suitePairs(shuffled)},
			}
			seen := map[Detection]int{}
			for _, c := range cases {
				img, err := c.suite.Image()
				if err != nil {
					t.Fatal(err)
				}
				want := w.scalarReplay(t, img, c.pairs)
				for _, d := range want {
					seen[d]++
				}
				for _, j := range []int{1, 8} {
					w.Config.Parallelism = j
					got, err := w.replaySuite(context.Background(), img, c.pairs)
					if err != nil {
						t.Fatalf("%s -j %d: %v", c.name, j, err)
					}
					if len(got) != len(want) {
						t.Fatalf("%s -j %d: %d detections, oracle has %d", c.name, j, len(got), len(want))
					}
					for i := range want {
						if got[i] != want[i] {
							p := c.pairs[i%len(c.pairs)]
							t.Errorf("%s -j %d: mode %v pair %d->%d: packed %d, scalar %d",
								c.name, j, failureModes[i/len(c.pairs)], p.Pair.Start, p.Pair.End, got[i], want[i])
						}
					}
				}
			}
			for d := DetectedOwn; d <= Missed; d++ {
				if d != DetectedStall && seen[d] == 0 {
					t.Errorf("no replay ended in Detection %d: the differential does not exercise it (%v)", d, seen)
				}
			}
		})
	}
}

// TestDetectionOfEveryHaltReason pins the one Halt -> Detection mapping
// the packed path and the oracle share.
func TestDetectionOfEveryHaltReason(t *testing.T) {
	const own = 3
	type out struct {
		d   Detection
		err bool
	}
	want := map[cpu.HaltReason]out{
		cpu.Running:         {err: true},
		cpu.HaltExit:        {d: Missed},
		cpu.HaltStalled:     {d: DetectedStall},
		cpu.HaltFault:       {d: DetectedStall},
		cpu.HaltLimit:       {d: Missed},
		cpu.HaltInterrupted: {err: true},
	}
	for h := cpu.Running; h <= cpu.HaltInterrupted; h++ {
		if h == cpu.HaltBreak {
			continue
		}
		w, ok := want[h]
		if !ok {
			t.Fatalf("halt reason %v has no expectation", h)
		}
		d, err := detectionOf(h.String(), 0, own)
		if (err != nil) != w.err || (err == nil && d != w.d) {
			t.Errorf("%v: got (%d, %v), want %+v", h, d, err, w)
		}
	}
	for caught, d := range map[int]Detection{own - 1: DetectedBefore, own: DetectedOwn, own + 1: DetectedLater} {
		if got, err := detectionOf(cpu.HaltBreak.String(), caught, own); err != nil || got != d {
			t.Errorf("break in case %d (own %d): got (%d, %v), want %d", caught, own, got, err, d)
		}
	}
	if _, err := detectionOf("", 0, own); err == nil {
		t.Error("an unfilled result's empty halt must be an error")
	}
}

// TestQualityIncompleteReplayIsError: Detection's zero value is
// DetectedOwn, so a replay that was cut short must fail the experiment
// instead of handing unfilled slots to the tally.
func TestQualityIncompleteReplayIsError(t *testing.T) {
	w := liftedALU(t, 1)
	s := w.Suite()
	img, err := s.Image()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if dets, err := w.replaySuite(ctx, img, suitePairs(s)); err == nil {
		t.Fatalf("cancelled replay returned %d detections and no error", len(dets))
	}
}

// TestQualityEmptySuite: a suite without pairs still yields the three
// failure-mode rows, all zero.
func TestQualityEmptySuite(t *testing.T) {
	w := NewALU(Config{})
	rows, err := w.TestQuality(&lift.Suite{Unit: "ALU"})
	if err != nil {
		t.Fatal(err)
	}
	var want []QualityRow
	for _, m := range failureModes {
		want = append(want, QualityRow{Unit: "ALU", FM: m})
	}
	if !reflect.DeepEqual(rows, want) {
		t.Errorf("rows = %+v, want %+v", rows, want)
	}
}
