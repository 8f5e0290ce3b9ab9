package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/alu"
	"repro/internal/cpu"
	"repro/internal/demo"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/fpu"
	"repro/internal/module"
	"repro/internal/par"
	"repro/internal/sta"
)

// scalarReplaySP is the replay ProfileWorkloads ran before its chunks
// became lanes, kept as the oracle replaySP is held to: one scalar
// module.Driver per chunk, each from reset, each operation through
// Driver.Exec and then gap idle cycles, the partial profiles merged in
// chunk order.
func scalarReplaySP(m *module.Module, sampled []cpu.OpRecord, gap int) *engine.Profile {
	chunks := min(profileChunks, len(sampled))
	parts := make([]*engine.Profile, chunks)
	for ci := range parts {
		lo := ci * len(sampled) / chunks
		hi := (ci + 1) * len(sampled) / chunks
		d := module.NewDriver(m)
		d.Sim.EnableSP()
		for _, op := range sampled[lo:hi] {
			d.Exec(op.Op, op.A, op.B)
			d.Sim.SetInput(module.PortInValid, 0)
			d.Sim.Run(gap)
		}
		parts[ci] = d.Sim.Profile()
	}
	return engine.MergeProfiles(parts...)
}

// TestProfilePackedMatchesScalarReplay: the packed-lane replay returns
// the scalar replay's profile bit for bit — Cycles, every Ones counter,
// every SP — on both units, for sample counts that fill the chunks
// evenly (400), unevenly (37) and not at all (5 operations, 5 lanes),
// with and without idle gaps, and on a unit whose out_valid never
// rises, where every lane sits out Latency+StallLimit cycles per
// operation.
func TestProfilePackedMatchesScalarReplay(t *testing.T) {
	for _, unit := range []struct {
		m   *module.Module
		ops []string
	}{
		{alu.Build(), []string{"crc32"}},
		{fpu.Build(), []string{"minver"}},
	} {
		w := newWorkflow(unit.m, Config{Workloads: unit.ops, MaxSampledOps: 400})
		if err := w.ProfileWorkloads(); err != nil {
			t.Fatal(err)
		}
		trace := w.OpTrace
		if len(trace) != 400 {
			t.Fatalf("%s: %d sampled operations, want 400", unit.m.Name, len(trace))
		}
		// The trace's own operations at an illegal encoding or two would
		// prove nothing new; a few random operands past the workload's do.
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < 20; i++ {
			trace[rng.Intn(len(trace))].A = rng.Uint32()
		}

		nl := unit.m.Netlist
		stalled := *unit.m
		stalled.Netlist = fault.FailingNetlist(nl, fault.Spec{
			Type: sta.Setup, C: fault.C0, Edge: fault.AnyChange,
			Start: demo.CellIDByName(nl, "valid_q"), End: demo.CellIDByName(nl, "out_valid_q"),
		})
		if _, _, ok := module.NewDriver(&stalled).Exec(trace[0].Op, trace[0].A, trace[0].B); ok {
			t.Fatalf("%s: the failing netlist meant to stall answered", unit.m.Name)
		}

		for _, tc := range []struct {
			m   *module.Module
			n   int
			gap int
		}{
			{unit.m, 400, 0}, {unit.m, 400, 3},
			{unit.m, 37, 0}, {unit.m, 37, 5},
			{unit.m, 5, 0}, {unit.m, 5, 2},
			{unit.m, 1, 1},
			{&stalled, 37, 0}, {&stalled, 37, 2},
		} {
			t.Run(fmt.Sprintf("%s/n=%d/gap=%d", tc.m.Netlist.Name, tc.n, tc.gap), func(t *testing.T) {
				got := replaySP(tc.m, trace[:tc.n], tc.gap)
				want := scalarReplaySP(tc.m, trace[:tc.n], tc.gap)
				if got.Cycles != want.Cycles {
					t.Fatalf("packed replay observed %d lane-cycles, scalar replay %d", got.Cycles, want.Cycles)
				}
				if !reflect.DeepEqual(got, want) {
					t.Error("packed replay's Ones/SP differ from the scalar replay's")
				}
			})
		}

		// And the profile the workflow installed is the oracle's on the
		// gap it derived itself.
		w2 := newWorkflow(unit.m, Config{Workloads: unit.ops, MaxSampledOps: 37})
		if err := w2.ProfileWorkloads(); err != nil {
			t.Fatal(err)
		}
		period := unit.m.Latency + 1
		gap := min(int(1/w2.OpDensity)-period, (w2.Config.SPBudgetCycles-37*period)/37)
		if want := scalarReplaySP(unit.m, w2.OpTrace, max(gap, 0)); !reflect.DeepEqual(w2.SPProfile, want) {
			t.Errorf("%s: ProfileWorkloads' profile differs from the scalar replay at gap %d", unit.m.Name, gap)
		}
	}
}

// TestRandomSPMatchesPerChunkEvaluators: the evaluator-per-worker
// RandomSP returns what a fresh evaluator per chunk, merged in chunk
// order, returns — Cycles, Ones and SP — at worker counts that divide
// the 16 chunks, that do not, and that exceed them, and when there are
// fewer cycles than chunks.
func TestRandomSPMatchesPerChunkEvaluators(t *testing.T) {
	nl := alu.Build().Netlist
	prog := engine.Cached(nl)
	for _, cycles := range []int{200, 37, 5} {
		chunks := min(randomSPChunks, cycles)
		parts := make([]*engine.Profile, chunks)
		for ci := range parts {
			e := engine.NewPacked(prog)
			e.EnableSP()
			e.RunRandom((ci+1)*cycles/chunks-ci*cycles/chunks, par.Seed(9, ci))
			parts[ci] = e.Profile()
		}
		want := engine.MergeProfiles(parts...)
		if want.Cycles != uint64(cycles)*engine.Lanes {
			t.Fatalf("oracle covers %d lane-cycles, want %d", want.Cycles, cycles*engine.Lanes)
		}
		for _, j := range []int{1, 2, 3, 5, 16, 40} {
			got, err := RandomSP(nl, cycles, 9, j)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("cycles %d, parallelism %d: profile differs from the per-chunk evaluators'", cycles, j)
			}
		}
	}
}
