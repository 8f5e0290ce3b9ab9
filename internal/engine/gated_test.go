package engine_test

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/alu"
	"repro/internal/engine"
	"repro/internal/fpu"
	"repro/internal/module"
	"repro/internal/netlist"
)

// laneOverlays gives each of the first n fault lanes of nl one random
// failure model (site i runs in lane i+1), so the lanes' words differ.
func laneOverlays(rng *rand.Rand, nl *netlist.Netlist, n int) []engine.Overlay {
	dffs := dffCells(nl)
	if len(dffs) == 0 {
		return nil
	}
	ovs := make([]engine.Overlay, n)
	for i := range ovs {
		ovs[i] = overlayFor(randomFaultSpec(rng, dffs), uint64(1)<<uint(i+1))
	}
	return ovs
}

// words reads every net of e.
func words(e *engine.FaultedPacked, numNets int) []uint64 {
	w := make([]uint64, numNets)
	for n := range w {
		w[n] = e.Word(netlist.NetID(n))
	}
	return w
}

// gatedMatchesFull runs the evaluator calls ops names on nl — stimulus
// to every lane and to a few, settles, clock edges, held lanes and
// resets — and after every settle holds each net's word to a full
// settle, in the netlist's own topological order, of the same state
// nets.
func gatedMatchesFull(t *testing.T, nl *netlist.Netlist, seed int64, ops []byte) bool {
	rng := rand.New(rand.NewSource(seed))
	p := engine.Compile(nl)
	tp := topoOrder(p)
	ovs := laneOverlays(rng, nl, 1+rng.Intn(engine.Lanes-1))
	fp, err := engine.CompileFaulted(p, ovs)
	if err != nil {
		t.Fatal(err)
	}
	e := engine.NewFaultedPacked(fp)
	settle := func(step int) bool {
		e.Settle()
		got := words(e, nl.NumNets)
		want := append([]uint64(nil), got...)
		tp.settlePacked(want)
		for n := range got {
			if got[n] != want[n] {
				t.Logf("seed %d step %d (op %d): net %s = %#x, a full settle gives %#x",
					seed, step, ops[step]%6, nl.NetName(netlist.NetID(n)), got[n], want[n])
				return false
			}
		}
		return true
	}
	for step, op := range ops {
		switch op % 6 {
		case 0:
			e.SetInputLanes(nl.Inputs[rng.Intn(len(nl.Inputs))].Name, ^uint64(0), rng.Uint64())
		case 1:
			if !settle(step) {
				return false
			}
		case 2:
			e.Edge()
		case 3:
			e.Reset()
		case 4:
			e.Hold(rng.Uint64())
		case 5:
			e.SetInputLanes(nl.Inputs[rng.Intn(len(nl.Inputs))].Name, rng.Uint64(), rng.Uint64())
		}
	}
	return settle(len(ops) - 1)
}

// TestGatedSettleMatchesFull: FaultedPacked's settle, which skips every
// run none of whose inputs changed, leaves each net with the word a full
// settle gives, over random call sequences on random netlists and on the
// ALU and FPU, whose change flags span many bitset words.
func TestGatedSettleMatchesFull(t *testing.T) {
	calls := func(seed int64, n int) []byte {
		ops := make([]byte, n)
		rand.New(rand.NewSource(seed ^ 0x6a7e)).Read(ops)
		return ops
	}
	check := func(seed int64) bool {
		return gatedMatchesFull(t, randomNetlist(seed%1024), seed, calls(seed, 200))
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
	for seed, m := range []*module.Module{alu.Build(), fpu.Build()} {
		if !gatedMatchesFull(t, m.Netlist, int64(seed), calls(int64(seed), 400)) {
			t.Fatalf("%s: a gated settle differs from a full one", m.Name)
		}
	}
}

// FuzzGatedSettle is TestGatedSettleMatchesFull with the fuzzer choosing
// the netlist and the call sequence.
func FuzzGatedSettle(f *testing.F) {
	f.Add(int64(1), []byte{0, 1, 2, 1, 5, 2, 1, 0, 1})
	f.Add(int64(42), []byte{2, 2, 1, 3, 0, 2, 1, 4, 1, 5, 5, 1})
	// Held lanes and one lane's stimulus, around a reset.
	f.Add(int64(7), []byte{5, 4, 1, 2, 10, 2, 3, 11, 5, 1, 2, 4, 0, 2, 1})
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		if len(ops) == 0 || len(ops) > 512 {
			t.Skip()
		}
		if !gatedMatchesFull(t, randomNetlist(seed%1024), seed, ops) {
			t.Fatal("a gated settle differs from a full one")
		}
	})
}

// reachedRuns counts the runs of p a gated settle must evaluate, given
// every net's word before the writes and after a full settle: those that
// read a state net whose word changed, or a net of another run that
// changed one of its output words (a run's change is one flag).
func reachedRuns(p *engine.Program, before, after []uint64) int {
	driver := make([]int, len(before))
	for n := range driver {
		driver[n] = -1
	}
	moved := make([]bool, len(p.Runs))
	for r, rn := range p.Runs {
		for _, op := range p.Ops[rn.Lo:rn.Hi] {
			driver[op.Out] = r
			moved[r] = moved[r] || before[op.Out] != after[op.Out]
		}
	}
	n := 0
	for r, rn := range p.Runs {
		for _, op := range p.Ops[rn.Lo:rn.Hi] {
			if slices.ContainsFunc(op.In[:op.NIn], func(in int32) bool {
				d := driver[in]
				return d < 0 && before[in] != after[in] || d >= 0 && d != r && moved[d]
			}) {
				n++
				break
			}
		}
	}
	return n
}

// evaluatesOnlyReached drives a faulted evaluator of nl for a number of
// cycles, each an optional clock edge under a random hold mask and new
// words on a random subset
// of the input ports, so no state net is written twice between settles.
// It holds the runs each settle evaluates to reachedRuns, taken from the
// words before the writes and after a full settle in the netlist's own
// topological order; a settle after Reset, or right after another
// settle, must evaluate every run and none.
func evaluatesOnlyReached(t *testing.T, nl *netlist.Netlist, seed int64, cycles int) bool {
	rng := rand.New(rand.NewSource(seed))
	p := engine.Compile(nl)
	tp := topoOrder(p)
	fp, err := engine.CompileFaulted(p, laneOverlays(rng, nl, 1+rng.Intn(engine.Lanes-1)))
	if err != nil {
		t.Fatal(err)
	}
	e := engine.NewFaultedPacked(fp)
	settle := func() int {
		n := engine.Evaluated(e)
		e.Settle()
		return engine.Evaluated(e) - n
	}
	if got := settle(); got != len(p.Runs) {
		t.Logf("%s seed %d: the settle after Reset evaluated %d of %d runs", nl.Name, seed, got, len(p.Runs))
		return false
	}
	for cyc := 0; cyc < cycles; cyc++ {
		before := words(e, nl.NumNets)
		e.Hold(rng.Uint64())
		if rng.Intn(2) == 0 {
			e.Edge()
		}
		for _, port := range nl.Inputs {
			if rng.Intn(2) == 0 {
				e.SetInputLanes(port.Name, ^uint64(0), rng.Uint64())
			}
		}
		after := words(e, nl.NumNets)
		tp.settlePacked(after)
		if got, want := settle(), reachedRuns(p, before, after); got != want {
			t.Logf("%s seed %d cycle %d: a settle evaluated %d runs, %d read a change", nl.Name, seed, cyc, got, want)
			return false
		}
		if got := settle(); got != 0 {
			t.Logf("%s seed %d cycle %d: a settle with no write since the last evaluated %d runs", nl.Name, seed, cyc, got)
			return false
		}
	}
	return true
}

// TestGatedSettleEvaluatesOnlyReachedRuns: a gated settle does exactly
// the work its rule names, on random netlists and on the ALU and FPU. A
// scheduler that evaluated more runs than changes reach would still
// pass TestGatedSettleMatchesFull.
func TestGatedSettleEvaluatesOnlyReachedRuns(t *testing.T) {
	check := func(seed int64) bool { return evaluatesOnlyReached(t, randomNetlist(seed%1024), seed, 20) }
	if err := quick.Check(check, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
	for seed, m := range []*module.Module{alu.Build(), fpu.Build()} {
		if !evaluatesOnlyReached(t, m.Netlist, int64(seed), 100) {
			t.Fatalf("%s: a settle evaluated other runs than the changes reach", m.Name)
		}
	}
}

// TestHeldLaneResumes: lanes held over a span of cycles, while every
// other lane runs on under stimulus of its own, and then released, each
// equal an evaluator of that lane alone that never saw the span: on
// every net after every settle, and on every state, history and LFSR
// bit after every edge. That is how a wave parks a lane where it
// diverged and its gang later continues it on the same evaluator. On
// the ALU and the FPU, with every lane made to differ by a random
// failure model, every other one a CRandom site.
func TestHeldLaneResumes(t *testing.T) {
	for _, m := range []*module.Module{alu.Build(), fpu.Build()} {
		t.Run(m.Name, func(t *testing.T) {
			t.Parallel()
			nl := m.Netlist
			rng := rand.New(rand.NewSource(int64(len(nl.Cells))))
			ovs := laneOverlays(rng, nl, engine.Lanes-1)
			for i := 0; i < len(ovs); i += 2 {
				ovs[i].C = engine.OverlayCRandom
			}
			fp, err := engine.CompileFaulted(engine.Cached(nl), ovs)
			if err != nil {
				t.Fatal(err)
			}
			const cycles = 60
			e := engine.NewFaultedPacked(fp)
			lanes := rng.Perm(engine.Lanes)[:6]
			solos := make([]*engine.FaultedPacked, len(lanes))
			from, to := make([]int, len(lanes)), make([]int, len(lanes))
			for i := range lanes {
				solos[i] = engine.NewFaultedPacked(fp)
				from[i] = rng.Intn(cycles - 10)
				to[i] = from[i] + 1 + rng.Intn(cycles/3)
			}
			for cyc := 0; cyc < cycles; cyc++ {
				var held uint64
				for i, l := range lanes {
					if from[i] <= cyc && cyc < to[i] {
						held |= 1 << uint(l)
					}
				}
				for _, port := range nl.Inputs {
					e.SetInputLanes(port.Name, ^held, rng.Uint64())
					for i, l := range lanes {
						if held>>uint(l)&1 == 0 {
							v := rng.Uint64()
							e.SetInputLanes(port.Name, 1<<uint(l), v)
							solos[i].SetInputLanes(port.Name, ^uint64(0), v)
						}
					}
				}
				e.Settle()
				for i, l := range lanes {
					solos[i].Settle()
					for n := 0; n < nl.NumNets; n++ {
						id := netlist.NetID(n)
						if g, s := e.Lane(id, l), solos[i].Lane(id, l); g != s {
							t.Fatalf("lane %d, held over cycles %d..%d, cycle %d: net %s is %v, %v alone",
								l, from[i], to[i], cyc, nl.NetName(id), g, s)
						}
					}
				}
				e.Hold(held)
				e.Edge()
				for i, l := range lanes {
					if held>>uint(l)&1 == 0 {
						solos[i].Edge()
					}
					if !slices.Equal(engine.LaneState(e, l), engine.LaneState(solos[i], l)) {
						t.Fatalf("lane %d, held over cycles %d..%d, after the edge of cycle %d: its state, history or LFSR differs from the lane alone",
							l, from[i], to[i], cyc)
					}
				}
			}
		})
	}
}
