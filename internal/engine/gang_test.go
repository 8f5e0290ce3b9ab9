package engine_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/alu"
	"repro/internal/engine"
	"repro/internal/fpu"
	"repro/internal/module"
	"repro/internal/netlist"
)

// gangMatchesSolo drives a gang evaluator of nl for a number of cycles,
// each new words on every input port, some of them in one lane only, a
// settle, and an edge at which a random set of lanes is held. A solo
// evaluator per watched lane sees only that lane's words and is clocked
// only at the edges the lane was not held at. After every settle the
// watched lane of the gang must equal its solo evaluator on every net.
// Every other fault lane samples the LFSR (CRandom), so a held lane
// whose LFSR stepped anyway fails.
func gangMatchesSolo(t *testing.T, nl *netlist.Netlist, seed int64, cycles int) bool {
	rng := rand.New(rand.NewSource(seed))
	ovs := laneOverlays(rng, nl, engine.Lanes-1)
	for i := range ovs {
		if i%2 == 0 {
			ovs[i].C = engine.OverlayCRandom
		}
	}
	fp, err := engine.CompileFaulted(engine.Compile(nl), ovs)
	if err != nil {
		t.Fatal(err)
	}
	gang := engine.NewFaultedPacked(fp)
	lanes := rng.Perm(engine.Lanes)[:4]
	var watched uint64
	solos := make([]*engine.FaultedPacked, len(lanes))
	for i, l := range lanes {
		solos[i] = engine.NewFaultedPacked(fp)
		watched |= 1 << uint(l)
	}
	for cyc := 0; cyc < cycles; cyc++ {
		for _, port := range nl.Inputs {
			gang.SetInputLanes(port.Name, rng.Uint64()&^watched, rng.Uint64())
			for i, l := range lanes {
				if rng.Intn(3) > 0 {
					v := rng.Uint64()
					gang.SetInputLanes(port.Name, 1<<uint(l), v)
					solos[i].SetInputLanes(port.Name, ^uint64(0), v)
				}
			}
		}
		gang.Settle()
		for i, l := range lanes {
			solos[i].Settle()
			for n := 0; n < nl.NumNets; n++ {
				id := netlist.NetID(n)
				if g, s := gang.Lane(id, l), solos[i].Lane(id, l); g != s {
					t.Logf("%s seed %d cycle %d: net %s is %v in gang lane %d, %v solo",
						nl.Name, seed, cyc, nl.NetName(id), g, l, s)
					return false
				}
			}
		}
		hold := rng.Uint64()
		gang.Hold(hold)
		gang.Edge()
		for i, l := range lanes {
			if hold>>uint(l)&1 == 0 {
				solos[i].Edge()
			}
		}
	}
	return true
}

// TestGangLaneMatchesSolo: a lane of an evaluator whose lanes are held
// at random edges and driven lane by lane equals an
// evaluator of that lane alone clocked only at the edges it was not held
// at, on random sequential netlists and on the ALU and FPU.
func TestGangLaneMatchesSolo(t *testing.T) {
	check := func(seed int64) bool { return gangMatchesSolo(t, randomSequentialNetlist(seed%1024), seed, 40) }
	if err := quick.Check(check, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
	for seed, m := range []*module.Module{alu.Build(), fpu.Build()} {
		if !gangMatchesSolo(t, m.Netlist, int64(seed), 60) {
			t.Fatalf("%s: a gang lane differs from its solo evaluator", m.Name)
		}
	}
}
