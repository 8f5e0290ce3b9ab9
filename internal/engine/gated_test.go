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
// to every lane and to a few, settles, clock edges, retirements, held
// lanes, resets and a reseed from up to three lanes' snapshots, as a
// gang of their continuations — and after every
// settle holds each net's word to a full settle, in the netlist's own
// topological order, of the same state nets.
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
	seeded := false // combinational nets undefined until the next settle
	settle := func(step int) bool {
		e.Settle()
		seeded = false
		got := words(e, nl.NumNets)
		want := append([]uint64(nil), got...)
		tp.settlePacked(want)
		for n := range got {
			if got[n] != want[n] {
				t.Logf("seed %d step %d (op %d): net %s = %#x, a full settle gives %#x",
					seed, step, ops[step]%8, nl.NetName(netlist.NetID(n)), got[n], want[n])
				return false
			}
		}
		return true
	}
	for step, op := range ops {
		switch op % 8 {
		case 0:
			e.SetInput(nl.Inputs[rng.Intn(len(nl.Inputs))].Name, rng.Uint64())
		case 1:
			if !settle(step) {
				return false
			}
		case 2:
			if seeded && !settle(step) {
				return false
			}
			e.Edge()
		case 3:
			e.Retire(rng.Uint64() &^ 1)
		case 4:
			e.Reset()
			seeded = false
		case 5:
			if seeded && !settle(step) {
				return false
			}
			var snaps []engine.Snapshot
			for _, lane := range rng.Perm(engine.Lanes)[:1+rng.Intn(3)] {
				snaps = append(snaps, e.Snapshot(lane))
			}
			e = engine.Seeded(fp, snaps...)
			seeded = true
		case 6:
			e.Hold(rng.Uint64())
		case 7:
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
	// Held lanes and one lane's stimulus, around a gang reseed.
	f.Add(int64(7), []byte{7, 6, 1, 2, 15, 2, 5, 14, 7, 1, 2, 6, 0, 2, 1})
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
// cycles, each an optional clock edge and new words on a random subset
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
		if rng.Intn(2) == 0 {
			e.Edge()
		}
		for _, port := range nl.Inputs {
			if rng.Intn(2) == 0 {
				e.SetInput(port.Name, rng.Uint64())
			}
		}
		e.Retire(rng.Uint64() &^ 1)
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

// TestStateSnapshotRoundTrip: a gang seeded from a few lanes' snapshots
// on the same program, each in its own lane, as the injection plane
// seeds a wave's retired lanes, settles to each lane's word on every
// net, and each lane stays equal to the lane it came from, net for net,
// over the cycles that follow — for the ALU and the FPU under random
// stimulus, with the lanes made to differ by random failure models.
func TestStateSnapshotRoundTrip(t *testing.T) {
	for _, m := range []*module.Module{alu.Build(), fpu.Build()} {
		t.Run(m.Name, func(t *testing.T) {
			t.Parallel()
			nl := m.Netlist
			rng := rand.New(rand.NewSource(int64(len(nl.Cells))))
			fp, err := engine.CompileFaulted(engine.Cached(nl), laneOverlays(rng, nl, engine.Lanes-1))
			if err != nil {
				t.Fatal(err)
			}
			e := engine.NewFaultedPacked(fp)
			drive := func(es ...*engine.FaultedPacked) {
				for _, port := range nl.Inputs {
					v := rng.Uint64()
					for _, x := range es {
						x.SetInput(port.Name, v)
					}
				}
			}
			for cyc := 0; cyc < 40; cyc++ {
				drive(e)
				e.Settle()
				if cyc%8 == 7 {
					roundTrip(t, nl, e, fp, rng.Perm(engine.Lanes)[:1+rng.Intn(8)], drive)
				}
				e.Edge()
			}
		})
	}
}

// roundTrip seeds a gang of e's lanes from their snapshots and compares
// each with its lane of e on every net for a few cycles. It advances e.
func roundTrip(t *testing.T, nl *netlist.Netlist, e *engine.FaultedPacked, fp *engine.FaultedProgram,
	lanes []int, drive func(...*engine.FaultedPacked)) {
	t.Helper()
	var snaps []engine.Snapshot
	for _, lane := range lanes {
		snaps = append(snaps, e.Snapshot(lane))
	}
	c := engine.Seeded(fp, snaps...)
	for cyc := 0; cyc < 4; cyc++ {
		if cyc > 0 {
			e.Edge()
			c.Edge()
			drive(e, c)
			e.Settle()
		}
		c.Settle()
		for n := 0; n < nl.NumNets; n++ {
			id := netlist.NetID(n)
			for _, lane := range lanes {
				if want := e.Lane(id, lane); c.Lane(id, lane) != want {
					t.Fatalf("lane %d of %v, cycle %d after the snapshot: net %s is %v in the gang, %v in the lane",
						lane, lanes, cyc, nl.NetName(id), !want, want)
				}
			}
		}
	}
}

// TestSeededRefusesForeignSnapshot: a snapshot holds one history bit per
// site of the program it was taken from, so seeding a program with
// another site count panics instead of misreading it; so does seeding
// one lane twice.
func TestSeededRefusesForeignSnapshot(t *testing.T) {
	nl := alu.Build().Netlist
	rng := rand.New(rand.NewSource(1))
	ovs := laneOverlays(rng, nl, 3)
	fp, err := engine.CompileFaulted(engine.Cached(nl), ovs)
	if err != nil {
		t.Fatal(err)
	}
	fewer, err := engine.CompileFaulted(engine.Cached(nl), ovs[:2])
	if err != nil {
		t.Fatal(err)
	}
	e := engine.NewFaultedPacked(fp)
	snap := e.Snapshot(1)
	engine.Seeded(fp, snap, e.Snapshot(2))
	for _, tc := range []struct {
		name string
		fp   *engine.FaultedProgram
		snap []engine.Snapshot
	}{
		{"a snapshot of 3 sites for a program of 2", fewer, []engine.Snapshot{snap}},
		{"two snapshots of lane 1", fp, []engine.Snapshot{snap, e.Snapshot(1)}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Seeded accepted %s", tc.name)
				}
			}()
			engine.Seeded(tc.fp, tc.snap...)
		}()
	}
}
