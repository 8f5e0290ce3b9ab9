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

// write is one input port driven with a word in every lane.
type write struct {
	port string
	val  uint64
}

// script is a run's stimulus, mark by mark: each of a mark's cycles is
// the writes made before its settle and edge.
type script [][][]write

// randomScript draws marks marks of one to three cycles each; a cycle
// writes each input port with probability 1/3, so state settles now and
// then and some spans are quiet.
func randomScript(rng *rand.Rand, nl *netlist.Netlist, marks int) script {
	s := make(script, marks)
	for k := range s {
		s[k] = make([][]write, 1+rng.Intn(3))
		for c := range s[k] {
			for _, p := range nl.Inputs {
				if rng.Intn(3) == 0 {
					s[k][c] = append(s[k][c], write{p.Name, rng.Uint64()})
				}
			}
		}
	}
	return s
}

// drive runs mark k's cycles on e, calling edged after every edge.
func (s script) drive(e *engine.FaultedPacked, k int, edged func()) {
	for _, cyc := range s[k] {
		for _, w := range cyc {
			e.SetInputLanes(w.port, ^uint64(0), w.val)
		}
		e.Settle()
		e.Edge()
		if edged != nil {
			edged()
		}
	}
}

// mixedOverlays gives every fault lane of nl one random failure model
// and makes every fourth a metastable one (Start == End) and every
// fourth another a CRandom one, so a set of lanes holds every site shape.
func mixedOverlays(rng *rand.Rand, nl *netlist.Netlist) []engine.Overlay {
	ovs := laneOverlays(rng, nl, engine.Lanes-1)
	for i := range ovs {
		switch i % 4 {
		case 0:
			ovs[i].End = ovs[i].Start
		case 1:
			ovs[i].C = engine.OverlayCRandom
		}
	}
	return ovs
}

// recorded is a recorded run and, at each of its marks, what lane 0 of
// an evaluator of the second program fp holds there: every net's bit
// after a settle, and its state (engine.LaneState).
type recorded struct {
	fp     *engine.FaultedProgram
	s      script
	rec    *engine.Recording
	nets   [][]bool
	states [][]bool
}

// recordRun records a random script on an evaluator of one set of
// failure models over p and follows it, in lockstep, with an evaluator of
// another (the program a later wave runs), reading the golden state at
// every mark from the follower.
func recordRun(t *testing.T, rng *rand.Rand, nl *netlist.Netlist, marks int) *recorded {
	t.Helper()
	p := engine.Compile(nl)
	rfp, err := engine.CompileFaulted(p, laneOverlays(rng, nl, 1+rng.Intn(engine.Lanes-1)))
	if err != nil {
		t.Fatal(err)
	}
	fp, err := engine.CompileFaulted(p, mixedOverlays(rng, nl))
	if err != nil {
		t.Fatal(err)
	}
	r := &recorded{fp: fp, s: randomScript(rng, nl, marks)}
	recorder := engine.NewFaultedPacked(rfp)
	r.rec = recorder.Record()
	follower := engine.NewFaultedPacked(fp)
	for k := range r.s {
		recorder.Mark()
		follower.Settle()
		nets := make([]bool, nl.NumNets)
		for n := range nets {
			nets[n] = follower.Lane(netlist.NetID(n), 0)
		}
		r.nets = append(r.nets, nets)
		r.states = append(r.states, engine.LaneState(follower, 0))
		r.s.drive(recorder, k, nil)
		r.s.drive(follower, k, nil)
	}
	return r
}

// restoreMatches restores, at every mark of a recorded run, a fresh
// evaluator of the follower's program that first ran a few cycles of
// its own stimulus; settled, every lane must equal the follower's lane
// 0 at that mark on every net, and its state (state nets, every site's
// history bit, the LFSR) must equal lane 0's.
func restoreMatches(t *testing.T, nl *netlist.Netlist, seed int64, marks int) bool {
	rng := rand.New(rand.NewSource(seed))
	r := recordRun(t, rng, nl, marks)
	for k := range r.s {
		e := engine.NewFaultedPacked(r.fp)
		for c := rng.Intn(5); c >= 0; c-- {
			for _, port := range nl.Inputs {
				e.SetInputLanes(port.Name, ^uint64(0), rng.Uint64())
			}
			e.Settle()
			e.Edge()
		}
		e.Settle()
		e.Restore(r.rec, k)
		e.Settle()
		for n := range r.nets[k] {
			id := netlist.NetID(n)
			if want := -b2w(r.nets[k][n]); e.Word(id) != want {
				t.Logf("%s seed %d mark %d: net %s = %#x after Restore, the recorded lane 0 gives %#x",
					nl.Name, seed, k, nl.NetName(id), e.Word(id), want)
				return false
			}
		}
		for lane := 0; lane < engine.Lanes; lane++ {
			if !slices.Equal(engine.LaneState(e, lane), r.states[k]) {
				t.Logf("%s seed %d mark %d: lane %d's state after Restore differs from lane 0's at the mark",
					nl.Name, seed, k, lane)
				return false
			}
		}
	}
	return true
}

func b2w(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// TestRestoreMatchesRecording: an evaluator restored at any mark of a
// recording settles equal, on every net and in every lane, to the
// golden lane at that mark, and holds its history registers and LFSR:
// on random netlists with gated clocks and on the ALU and FPU, with
// setup, hold, metastable and CRandom sites. A scratch mutant that skips
// the LFSR restore fails it, and so does one that skips the history
// restore.
func TestRestoreMatchesRecording(t *testing.T) {
	check := func(seed int64) bool { return restoreMatches(t, randomNetlist(seed%1024), seed, 12) }
	if err := quick.Check(check, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
	for seed, m := range []*module.Module{alu.Build(), fpu.Build()} {
		if !restoreMatches(t, m.Netlist, int64(seed), 30) {
			t.Fatalf("%s: a restored evaluator differs from the recording", m.Name)
		}
	}
}

// quietIsExact holds Quiet to brute force at every mark of a recorded
// run: a fresh evaluator of the follower's program, with all but one to
// three fault lanes held, is restored at the mark and asked for its
// verdict, then driven through the mark's cycles. Across a quiet span no
// unheld lane may leave the golden state at any edge, and across a span
// that is not quiet one must. verdicts counts the spans found quiet
// and not.
func quietIsExact(t *testing.T, nl *netlist.Netlist, seed int64, marks int, verdicts *[2]int) bool {
	rng := rand.New(rand.NewSource(seed))
	r := recordRun(t, rng, nl, marks)
	for k := range r.s {
		for trial := 0; trial < 4; trial++ {
			e := engine.NewFaultedPacked(r.fp)
			var keep uint64
			for i := 1 + rng.Intn(3); i > 0; i-- {
				keep |= 1 << uint(1+rng.Intn(engine.Lanes-1))
			}
			e.Hold(^keep &^ 1)
			e.Restore(r.rec, k)
			if !e.Golden() {
				t.Logf("%s seed %d mark %d: a restored evaluator is not golden", nl.Name, seed, k)
				return false
			}
			quiet := e.Quiet(r.rec, k)
			left := false
			r.s.drive(e, k, func() { left = left || !e.Golden() })
			if quiet == left {
				t.Logf("%s seed %d mark %d, lanes %#x: Quiet says %v, yet a lane left golden: %v",
					nl.Name, seed, k, keep, quiet, left)
				return false
			}
			if quiet {
				verdicts[1]++
			} else {
				verdicts[0]++
			}
		}
	}
	return true
}

// TestQuietIsExact: the quiet verdict equals brute-force simulation, on
// random netlists with gated clocks and on the ALU and FPU, with setup,
// hold and metastable sites, every edge filter, C0, C1 and CRandom, and
// clock-gated endpoints. Scratch mutants that drop the endpoint's clock
// from the corruption test, or its C != D, fail it.
func TestQuietIsExact(t *testing.T) {
	var verdicts [2]int
	check := func(seed int64) bool { return quietIsExact(t, randomNetlist(seed%1024), seed, 12, &verdicts) }
	if err := quick.Check(check, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
	for seed, m := range []*module.Module{alu.Build(), fpu.Build()} {
		if !quietIsExact(t, m.Netlist, int64(seed), 30, &verdicts) {
			t.Fatalf("%s: a quiet verdict differs from simulation", m.Name)
		}
	}
	if verdicts[0] == 0 || verdicts[1] == 0 {
		t.Fatalf("verdicts: %d spans not quiet, %d quiet; want both", verdicts[0], verdicts[1])
	}
}

// TestRecordingRefusesForeignProgram: a recording belongs to the program
// it was recorded on; testing or restoring an evaluator of another, even
// one compiled from the same netlist, panics.
func TestRecordingRefusesForeignProgram(t *testing.T) {
	nl := alu.Build().Netlist
	mk := func() *engine.FaultedPacked {
		fp, err := engine.CompileFaulted(engine.Compile(nl), nil)
		if err != nil {
			t.Fatal(err)
		}
		return engine.NewFaultedPacked(fp)
	}
	rec := mk().Record()
	foreign := mk()
	for name, use := range map[string]func(){
		"Quiet":   func() { foreign.Quiet(rec, 0) },
		"Restore": func() { foreign.Restore(rec, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s accepted a recording of another program", name)
				}
			}()
			use()
		}()
	}
}

// heldLanesPassedBy restores, at every mark of a recorded run, an
// evaluator of the follower's program that first ran a few cycles of
// its own stimulus, with a random set of fault lanes held. The held
// lanes must keep their state through Restore, Golden must hold after
// it although some held lane differs from lane 0, and Quiet must equal
// the conjunction of its verdicts for each unheld lane alone (true with
// every fault lane held). seen counts the marks at which a held lane
// differs from lane 0 and the lanes alone found not quiet, so both rules
// are seen to bite.
func heldLanesPassedBy(t *testing.T, nl *netlist.Netlist, seed int64, marks int, seen *[2]int) bool {
	rng := rand.New(rand.NewSource(seed))
	r := recordRun(t, rng, nl, marks)
	for k := range r.s {
		e := engine.NewFaultedPacked(r.fp)
		for c := 1 + rng.Intn(4); c > 0; c-- {
			for _, port := range nl.Inputs {
				e.SetInputLanes(port.Name, ^uint64(0), rng.Uint64())
			}
			e.Settle()
			e.Edge()
		}
		held := rng.Uint64() &^ 1
		e.Hold(held)
		before := make([][]bool, engine.Lanes)
		for lane := range before {
			before[lane] = engine.LaneState(e, lane)
		}
		for lane := range before {
			if held>>uint(lane)&1 == 1 && !slices.Equal(before[lane], before[0]) {
				seen[0]++
				break
			}
		}
		e.Restore(r.rec, k)
		for lane := range before {
			if held>>uint(lane)&1 == 1 && !slices.Equal(engine.LaneState(e, lane), before[lane]) {
				t.Logf("%s seed %d mark %d: Restore wrote held lane %d", nl.Name, seed, k, lane)
				return false
			}
		}
		if !e.Golden() {
			t.Logf("%s seed %d mark %d: not golden after Restore", nl.Name, seed, k)
			return false
		}
		quiet := true
		for lane := 1; lane < engine.Lanes; lane++ {
			if held>>uint(lane)&1 == 0 {
				e.Hold(^uint64(1<<uint(lane)) &^ 1)
				alone := e.Quiet(r.rec, k)
				quiet = quiet && alone
				if !alone {
					seen[1]++
				}
			}
		}
		e.Hold(held)
		if got := e.Quiet(r.rec, k); got != quiet {
			t.Logf("%s seed %d mark %d: Quiet says %v with lanes %#x held, its unheld lanes alone %v", nl.Name, seed, k, got, held, quiet)
			return false
		}
		e.Hold(^uint64(1))
		if !e.Quiet(r.rec, k) {
			t.Logf("%s seed %d mark %d: not quiet with every fault lane held", nl.Name, seed, k)
			return false
		}
	}
	return true
}

// TestRecordingPassesHeldLanesBy: Restore, Golden and Quiet look only at
// the lanes that are not held, on random netlists with gated clocks and
// on the ALU and FPU, with setup, hold, metastable and CRandom sites: a
// wave holds each lane from the check it retires at to the end of its
// gang, and a restore that wrote it would continue it from the golden
// state.
func TestRecordingPassesHeldLanesBy(t *testing.T) {
	var seen [2]int
	check := func(seed int64) bool { return heldLanesPassedBy(t, randomNetlist(seed%1024), seed, 8, &seen) }
	if err := quick.Check(check, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
	for seed, m := range []*module.Module{alu.Build(), fpu.Build()} {
		if !heldLanesPassedBy(t, m.Netlist, int64(seed), 12, &seen) {
			t.Fatalf("%s: Restore, Golden or Quiet looked at a held lane", m.Name)
		}
	}
	if seen[0] == 0 || seen[1] == 0 {
		t.Fatalf("%d marks with a held lane off golden, %d lanes alone not quiet; want both", seen[0], seen[1])
	}
}
