package bmc_test

import (
	"fmt"
	"hash/fnv"
	"sort"
	"testing"

	"repro/internal/alu"
	"repro/internal/bmc"
	"repro/internal/fault"
	"repro/internal/fpu"
	"repro/internal/lift"
	"repro/internal/module"
	"repro/internal/sat"
	"repro/internal/sta"
)

// coverPin is what one Cover query is pinned to: the verdict and depth,
// the whole bmc.Stats (CNF size, solves, all five solver counters) and
// an FNV-1a over the trace (port names in order, every cycle's value,
// the cover cycle and the cover point's nets). Recorded on the
// pointer-per-clause solver (commit 2613d53), beside the pins in
// internal/sat/trajectory_test.go and for the same purpose: a change to
// clause storage, watch lists, the decision heap or the unroller's
// allocation pattern must reproduce every number; one that moves a pin
// has changed the search and is wrong — do not re-record.
type coverPin struct {
	verdict bmc.Verdict
	depth   int
	stats   bmc.Stats
	trace   uint64
}

// pin spells a coverPin positionally: verdict, depth; solves, vars,
// clauses; conflicts, decisions, propagations, restarts, learnts; trace.
func pin(v bmc.Verdict, depth, solves, vars, clauses int, conflicts, decisions, propagations, restarts, learnts int64, trace uint64) coverPin {
	return coverPin{v, depth, bmc.Stats{Solves: solves, Vars: vars, Clauses: clauses, Solver: sat.Stats{
		Conflicts: conflicts, Decisions: decisions, Propagations: propagations, Restarts: restarts, Learnts: learnts}}, trace}
}

func (p coverPin) String() string {
	s := p.stats
	return fmt.Sprintf("pin(bmc.%s, %d, %d, %d, %d, %d, %d, %d, %d, %d, %#x)",
		[]string{"Covered", "Unreachable", "Timeout"}[p.verdict], p.depth, s.Solves, s.Vars, s.Clauses,
		s.Solver.Conflicts, s.Solver.Decisions, s.Solver.Propagations, s.Solver.Restarts, s.Solver.Learnts, p.trace)
}

func traceHash(tr *bmc.Trace) uint64 {
	if tr == nil {
		return 0
	}
	ports := make([]string, 0, len(tr.Inputs))
	for p := range tr.Inputs {
		ports = append(ports, p)
	}
	sort.Strings(ports)
	h := fnv.New64a()
	for _, p := range ports {
		fmt.Fprintf(h, "%s=%x;", p, tr.Inputs[p])
	}
	fmt.Fprintf(h, "%d@%d:%d/%d", tr.Cycles, tr.CoverCycle, tr.CoverPoint.Orig, tr.CoverPoint.Shadow)
	return h.Sum64()
}

// TestSearchTrajectoryPinned runs Cover on shadow replicas of the real
// ALU and FPU (the benchSpec pair, both wrong-value constants and the
// hold variant) under the assume-environment Error Lifting uses.
func TestSearchTrajectoryPinned(t *testing.T) {
	type variant struct {
		typ sta.PathType
		c   fault.CValue
	}
	variants := []variant{{sta.Setup, fault.C1}, {sta.Setup, fault.C0}, {sta.Hold, fault.C1}}
	for _, unit := range []struct {
		name  string
		build func() *module.Module
		want  []coverPin
	}{
		{"ALU", alu.Build, []coverPin{
			pin(bmc.Covered, 3, 3, 5288, 10906, 51, 1864, 17279, 0, 51, 0xeb7baf248f3aedaa),
			pin(bmc.Covered, 3, 3, 5288, 10906, 26, 1808, 13306, 0, 26, 0x8eecaff701c9897c),
			pin(bmc.Covered, 3, 3, 5285, 10914, 37, 2800, 17632, 0, 37, 0x9f992cf27d28673d),
		}},
		{"FPU", fpu.Build, []coverPin{
			pin(bmc.Covered, 3, 3, 27323, 57324, 120, 1944, 71090, 1, 120, 0x395a90f25ba1737c),
			pin(bmc.Covered, 3, 3, 27323, 57324, 171, 3018, 156368, 1, 171, 0xa2fe6be2b9e0ca5b),
			pin(bmc.Covered, 3, 3, 27320, 57332, 125, 1869, 77548, 1, 125, 0x822e20f5174ed862),
		}},
	} {
		m := unit.build()
		cfg := lift.BMCConfig(m, lift.Config{MaxDepth: 8})
		for i, v := range variants {
			spec := benchSpec(m)
			spec.Type, spec.C = v.typ, v.c
			t.Run(fmt.Sprintf("%s/%v-C%d", unit.name, v.typ, v.c), func(t *testing.T) {
				inst := fault.ShadowReplica(m.Netlist, spec)
				res := bmc.Cover(inst.Netlist, inst.Covers, cfg)
				if res.Verdict == bmc.Covered && !bmc.Replay(inst.Netlist, res.Trace) {
					t.Error("trace does not replay")
				}
				got := coverPin{res.Verdict, res.Depth, res.Stats, traceHash(res.Trace)}
				if got != unit.want[i] {
					t.Errorf("trajectory moved:\n got %v\nwant %v", got, unit.want[i])
				}
			})
		}
	}
}
