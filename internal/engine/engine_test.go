package engine_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/alu"
	"repro/internal/cell"
	"repro/internal/engine"
	"repro/internal/netlist"
	"repro/internal/sim"
	"repro/internal/sta"
	"repro/internal/synth"
)

// randomNetlist builds a random sequential DAG: a clock (with a buffered
// and a gated branch), a few input bits, and a mix of every
// combinational kind plus DFFs clocked from any clock branch. Cells only
// ever read already-driven nets, so the result always validates.
func randomNetlist(seed int64) *netlist.Netlist {
	rng := rand.New(rand.NewSource(seed))
	b := netlist.NewBuilder(fmt.Sprintf("rnd%d", seed))
	clk := b.Clock("clk")
	nIn := 2 + rng.Intn(5)
	in := b.InputBus("x", nIn)
	pool := append(netlist.Bus{}, in...)
	clks := []netlist.NetID{
		clk,
		b.Add(cell.CLKBUF, clk),
		b.Add(cell.CLKGATE, clk, pool[rng.Intn(len(pool))]),
	}
	kinds := []cell.Kind{
		cell.TIE0, cell.TIE1, cell.BUF, cell.INV,
		cell.AND2, cell.OR2, cell.NAND2, cell.NOR2,
		cell.XOR2, cell.XNOR2, cell.MUX2, cell.AOI21, cell.OAI21,
	}
	nCells := 5 + rng.Intn(45)
	for i := 0; i < nCells; i++ {
		if rng.Intn(4) == 0 {
			d := pool[rng.Intn(len(pool))]
			q := b.AddDFF(d, clks[rng.Intn(len(clks))], rng.Intn(2) == 0)
			pool = append(pool, q)
			continue
		}
		k := kinds[rng.Intn(len(kinds))]
		ins := make([]netlist.NetID, k.NumInputs())
		for j := range ins {
			ins[j] = pool[rng.Intn(len(pool))]
		}
		pool = append(pool, b.Add(k, ins...))
	}
	b.Output("y", pool[len(pool)-1])
	return b.MustBuild()
}

// driveBoth presents one cycle of stimulus — a full 64-lane word per
// input bit — to the packed evaluator and the matching single-lane slice
// to a scalar simulator.
func driveBoth(e *engine.Packed, s *sim.Simulator, in netlist.Bus, words []uint64, lane int) {
	bits := make([]bool, len(in))
	for j, n := range in {
		e.SetNet(n, words[j])
		bits[j] = words[j]>>uint(lane)&1 == 1
	}
	s.SetInputBits("x", bits)
}

// TestPackedLaneMatchesScalar is the cross-evaluator equivalence
// property: over randomized netlists and stimulus, one lane of the
// packed evaluator deep-equals a scalar sim.Simulator driven with that
// lane's stimulus slice — every settled net value (hence all DFF state)
// on every cycle, and the per-lane SP accumulation reconstructed from
// those values.
func TestPackedLaneMatchesScalar(t *testing.T) {
	check := func(seed int64, lane8 uint8) bool {
		lane := int(lane8) % engine.Lanes
		nl := randomNetlist(seed)
		prog := engine.Cached(nl)
		e := engine.NewPacked(prog)
		s := sim.New(nl)
		s.EnableSP()
		rng := rand.New(rand.NewSource(seed ^ 0x5eed))
		in, _ := nl.FindInput("x")
		laneOnes := make([]float64, nl.NumNets) // expected lane SP counters
		words := make([]uint64, len(in.Bits))
		for cyc := 0; cyc < 25; cyc++ {
			for j := range words {
				words[j] = rng.Uint64()
			}
			driveBoth(e, s, in.Bits, words, lane)
			e.Settle()
			for n := 0; n < nl.NumNets; n++ {
				id := netlist.NetID(n)
				if e.Lane(id, lane) != s.Net(id) {
					t.Logf("seed %d lane %d cycle %d: net %s packed=%v scalar=%v",
						seed, lane, cyc, nl.NetName(id), e.Lane(id, lane), s.Net(id))
					return false
				}
				switch {
				case prog.IsClockNet[n]:
					if e.Lane(id, lane) {
						laneOnes[n] += 0.5
					}
				case e.Lane(id, lane):
					laneOnes[n] += 1.0
				}
			}
			e.Step()
			s.Step()
		}
		// The scalar SP counters must equal the residency reconstructed
		// from the packed lane's observed values — same rounding, since
		// both are sums of exact halves.
		prof := s.Profile()
		for n := range laneOnes {
			if prof.Ones[n] != laneOnes[n] {
				t.Logf("seed %d lane %d: net %d Ones packed-lane=%v scalar=%v",
					seed, lane, n, laneOnes[n], prof.Ones[n])
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestPackedSPAggregationIsExact proves the popcount accumulation
// argument from DESIGN.md: the packed evaluator's aggregate Ones
// counters equal the float64 sum of 64 independent scalar simulators'
// counters, exactly (==, not approximately), and the merged profile has
// the same SP. Counts are integers (halves on clock nets), so no
// rounding ever occurs.
func TestPackedSPAggregationIsExact(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 17, 99} {
		nl := randomNetlist(seed)
		prog := engine.Cached(nl)
		e := engine.NewPacked(prog)
		e.EnableSP()
		scalars := make([]*sim.Simulator, engine.Lanes)
		for l := range scalars {
			scalars[l] = sim.New(nl)
			scalars[l].EnableSP()
		}
		rng := rand.New(rand.NewSource(seed))
		in, _ := nl.FindInput("x")
		words := make([]uint64, len(in.Bits))
		bits := make([]bool, len(in.Bits))
		const cycles = 20
		for cyc := 0; cyc < cycles; cyc++ {
			for j := range words {
				words[j] = rng.Uint64()
			}
			for j, n := range in.Bits {
				e.SetNet(n, words[j])
			}
			for l, s := range scalars {
				for j := range bits {
					bits[j] = words[j]>>uint(l)&1 == 1
				}
				s.SetInputBits("x", bits)
			}
			e.Step()
			for _, s := range scalars {
				s.Step()
			}
		}
		packed := e.Profile()
		parts := make([]*engine.Profile, len(scalars))
		for l, s := range scalars {
			parts[l] = s.Profile()
		}
		merged := engine.MergeProfiles(parts...)
		if packed.Cycles != merged.Cycles {
			t.Fatalf("seed %d: packed covers %d lane-cycles, merged scalars %d",
				seed, packed.Cycles, merged.Cycles)
		}
		for n := range packed.Ones {
			if packed.Ones[n] != merged.Ones[n] {
				t.Errorf("seed %d net %d: packed Ones %v != sum-of-scalars %v",
					seed, n, packed.Ones[n], merged.Ones[n])
			}
		}
		if !reflect.DeepEqual(packed.SP, merged.SP) {
			t.Errorf("seed %d: packed SP differs from merged scalar SP", seed)
		}
	}
}

// TestCompileStructure checks the compiled program's shape: one op per
// non-sequential cell in exactly topological order, runs that partition
// the stream into same-kind spans, the complete DFF list in cell order,
// and a dependency order where every operand is available before its
// reader.
func TestCompileStructure(t *testing.T) {
	nl := randomNetlist(42)
	p := engine.Compile(nl)
	topo := nl.Topo()
	if len(p.Ops) != len(topo) {
		t.Fatalf("%d ops, want %d", len(p.Ops), len(topo))
	}
	for i, cid := range topo {
		if p.Ops[i].Cell != int32(cid) {
			t.Fatalf("op %d compiled from cell %d, want %d (topo order must be preserved)",
				i, p.Ops[i].Cell, cid)
		}
	}
	// Runs partition [0, len(Ops)) into maximal same-kind spans.
	at := 0
	for _, r := range p.Runs {
		if int(r.Lo) != at || r.Hi <= r.Lo {
			t.Fatalf("run %+v does not continue partition at %d", r, at)
		}
		for i := r.Lo; i < r.Hi; i++ {
			if p.Ops[i].Kind != r.Kind {
				t.Fatalf("op %d kind %s inside %s run", i, p.Ops[i].Kind, r.Kind)
			}
		}
		at = int(r.Hi)
	}
	if at != len(p.Ops) {
		t.Fatalf("runs cover %d ops, want %d", at, len(p.Ops))
	}
	if got, want := len(p.DFFs), len(nl.DFFs()); got != want {
		t.Fatalf("%d DFFs, want %d", got, want)
	}
	// Dependency order: an op's inputs are either primary/state nets or
	// outputs of earlier ops.
	ready := make([]bool, nl.NumNets)
	for n := 0; n < nl.NumNets; n++ {
		d := nl.Driver(netlist.NetID(n))
		if d == netlist.NoCell || nl.Cells[d].Kind.IsSequential() {
			ready[n] = true
		}
	}
	for i := range p.Ops {
		op := &p.Ops[i]
		for j := 0; j < int(op.NIn); j++ {
			if !ready[op.In[j]] {
				t.Fatalf("op %d reads net %d before it is computed", i, op.In[j])
			}
		}
		ready[op.Out] = true
		if lvl := p.Level[i]; lvl < 0 || int(lvl) > p.Depth() {
			t.Fatalf("op %d has level %d outside [0, %d]", i, lvl, p.Depth())
		}
	}
}

// TestCachedSharesPrograms checks the keyed cache: same netlist, same
// program instance; distinct netlists, distinct programs.
// TestCompileAllocsConstant guards the million-op compile path: every
// Program slice is pre-counted and allocated exactly once, so the
// allocation count must not grow with netlist size. The bound is a small
// constant (the fixed set of slice headers plus the Program itself), not
// a per-cell budget.
func TestCompileAllocsConstant(t *testing.T) {
	small := synth.Pipeline{Stages: 3, Width: 8, Lanes: 1}.Build()
	large := synth.Pipeline{Stages: 5, Width: 32, Lanes: 4}.Build()
	if len(large.Cells) < 4*len(small.Cells) {
		t.Fatalf("test premise broken: %d vs %d cells", len(small.Cells), len(large.Cells))
	}
	measure := func(nl *netlist.Netlist) float64 {
		return testing.AllocsPerRun(10, func() { engine.Compile(nl) })
	}
	a, b := measure(small), measure(large)
	if a != b {
		t.Errorf("Compile allocations scale with netlist size: %v (small) vs %v (large)", a, b)
	}
	if a > 16 {
		t.Errorf("Compile makes %v allocations, want a small constant", a)
	}
}

// TestCachedSharesPrograms pins the memo's identity contract: one
// program per netlist value — the same pointer always yields the same
// program, and a Clone (equal structure, new value) starts with none.
func TestCachedSharesPrograms(t *testing.T) {
	a := randomNetlist(7)
	b := randomNetlist(8)
	if engine.Cached(a) != engine.Cached(a) {
		t.Error("same netlist compiled twice")
	}
	if engine.Cached(a) == engine.Cached(b) {
		t.Error("distinct netlists share a program")
	}
	if engine.Cached(a.Clone()) == engine.Cached(a) {
		t.Error("a clone shares its original's program")
	}
	if sim.New(a).Program() != engine.Cached(a) {
		t.Error("simulator does not share the cached program")
	}
}

// TestCachedCompilesOnceConcurrently: many goroutines asking for one
// fresh netlist's program get the same one from a single compile. Run
// under -race in CI.
func TestCachedCompilesOnceConcurrently(t *testing.T) {
	const callers = 32
	nl := randomNetlist(9)
	before := engine.CacheStats()
	progs := make([]*engine.Program, callers)
	gate := make(chan struct{})
	var wg sync.WaitGroup
	for i := range progs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-gate
			progs[i] = engine.Cached(nl)
		}(i)
	}
	close(gate)
	wg.Wait()
	for i, p := range progs {
		if p == nil || p != progs[0] {
			t.Fatalf("caller %d got program %p, caller 0 got %p", i, p, progs[0])
		}
	}
	after := engine.CacheStats()
	if misses, hits := after.Misses-before.Misses, after.Hits-before.Hits; misses != 1 || hits != callers-1 {
		t.Errorf("%d callers recorded %d misses and %d hits, want 1 and %d", callers, misses, hits, callers-1)
	}
}

// TestCachedDoesNotPinNetlist: a netlist's compiled forms live on the
// netlist, so dropping the last reference to it frees all three. The
// finalizer sits on the cell array, which only the netlist reaches — the
// netlist itself is in a cycle with its artifacts (Program.Netlist), and
// the runtime never finalizes an object that is reachable from itself.
func TestCachedDoesNotPinNetlist(t *testing.T) {
	freed := make(chan struct{})
	func() {
		nl := randomNetlist(11)
		engine.Cached(nl)
		sta.CachedGraph(nl)
		runtime.SetFinalizer(&nl.Cells[0], func(*netlist.Cell) { close(freed) })
	}()
	for i := 0; i < 50; i++ {
		runtime.GC()
		select {
		case <-freed:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("netlist still reachable after its last reference was dropped: a compile memo pins it")
}

// oversized returns a netlist Compile refuses: a clone with one cell
// widened past cell.MaxArity inputs (only reachable by bypassing Build,
// which rejects such netlists itself).
func oversized(t *testing.T) *netlist.Netlist {
	clone := randomNetlist(3).Clone()
	for i := range clone.Cells {
		if clone.Cells[i].Kind == cell.AND2 {
			clone.Cells[i].In = append(clone.Cells[i].In, clone.Cells[i].In[0], clone.Cells[i].In[0])
			return clone
		}
	}
	t.Skip("random netlist had no AND2 to widen")
	return nil
}

// panics reports what f panicked with, nil if it returned.
func panics(f func()) (r any) {
	defer func() { r = recover() }()
	f()
	return nil
}

// TestOversizedArityPanics proves Compile refuses a netlist whose cells
// exceed cell.MaxArity inputs, and that Cached keeps refusing it: the
// failed first compile must not leave a nil program behind for the
// second caller.
func TestOversizedArityPanics(t *testing.T) {
	nl := oversized(t)
	if panics(func() { engine.Compile(nl) }) == nil {
		t.Error("Compile accepted a cell with fan-in above cell.MaxArity")
	}
	first := panics(func() { engine.Cached(nl) })
	second := panics(func() { engine.Cached(nl) })
	if first == nil || second != first {
		t.Errorf("Cached panicked with %v, then %v; want the same refusal both times", first, second)
	}
}

// TestProfileAccumulatesAcrossReset: Reset keeps the SP counters, so it
// has to keep the number of cycles they were sampled over as well — a
// run of 10 cycles, a Reset and a run of 2 is the merge of a fresh
// 10-cycle and a fresh 2-cycle profile, on the scalar simulator and on
// the packed evaluator alike (dividing twelve cycles' residency by the
// two since the Reset gave "probabilities" up to 6), and ResetSP starts
// the observation over.
func TestProfileAccumulatesAcrossReset(t *testing.T) {
	nl := alu.Build().Netlist
	check := func(name string, got, want *engine.Profile) {
		t.Helper()
		if got.Cycles != want.Cycles {
			t.Errorf("%s: profile covers %d cycles, want %d", name, got.Cycles, want.Cycles)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: run-reset-run differs from the merge of two fresh runs", name)
		}
		for n, sp := range got.SP {
			if sp > 1 {
				t.Errorf("%s: net %d has signal probability %v", name, n, sp)
				break
			}
		}
	}

	drive := func(s *sim.Simulator, cycles int, seed int64) *sim.Simulator {
		rng := rand.New(rand.NewSource(seed))
		for c := 0; c < cycles; c++ {
			for _, p := range nl.Inputs {
				s.SetInput(p.Name, rng.Uint64())
			}
			s.Step()
		}
		return s
	}
	scalar := func() *sim.Simulator {
		s := sim.New(nl)
		s.EnableSP()
		return s
	}
	s := drive(scalar(), 10, 1)
	s.Reset()
	drive(s, 2, 2)
	check("scalar", s.Profile(), engine.MergeProfiles(
		drive(scalar(), 10, 1).Profile(), drive(scalar(), 2, 2).Profile()))
	s.Reset()
	s.ResetSP()
	check("scalar after ResetSP", drive(s, 2, 2).Profile(), drive(scalar(), 2, 2).Profile())

	drivePacked := func(e *engine.Packed, cycles int, seed int64) *engine.Packed {
		rng := rand.New(rand.NewSource(seed))
		for c := 0; c < cycles; c++ {
			for _, p := range nl.Inputs {
				for _, n := range p.Bits {
					e.SetNet(n, rng.Uint64())
				}
			}
			e.Step()
		}
		return e
	}
	packed := func() *engine.Packed {
		e := engine.NewPacked(engine.Cached(nl))
		e.EnableSP()
		return e
	}
	e := drivePacked(packed(), 10, 1)
	e.Reset()
	drivePacked(e, 2, 2)
	check("packed", e.Profile(), engine.MergeProfiles(
		drivePacked(packed(), 10, 1).Profile(), drivePacked(packed(), 2, 2).Profile()))
}
