package bmc_test

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/alu"
	"repro/internal/bmc"
	"repro/internal/fault"
	"repro/internal/lift"
	"repro/internal/module"
	"repro/internal/sta"
)

// TestCoverPooledMatchesFresh: whatever query last used the storage a
// Cover call draws from the pool, and whichever goroutine, the call
// returns what it would as the first of the process — verdict, depth,
// trace and every Stats count. ALU specs of different CNF sizes and
// depths (setup and hold, both constants, endpoints across the result
// bus, one masked by an unsatisfiable assume) run in a different order
// on each of four goroutines against the answers of CoverFresh. Run it
// with -race -count=10: the race detector also makes the pool drop
// storage at random, so fresh and reused unrollers interleave.
func TestCoverPooledMatchesFresh(t *testing.T) {
	m := alu.Build()
	type query struct {
		inst *fault.Instrumented
		cfg  bmc.Config
		want *bmc.Result
	}
	var queries []query
	for _, bit := range []int{0, 13, 31} {
		for _, v := range []struct {
			typ sta.PathType
			c   fault.CValue
		}{{sta.Setup, fault.C0}, {sta.Setup, fault.C1}, {sta.Hold, fault.C1}} {
			spec := benchSpecAt(m, bit)
			spec.Type, spec.C = v.typ, v.c
			queries = append(queries, query{inst: fault.ShadowReplica(m.Netlist, spec), cfg: lift.BMCConfig(m, lift.Config{})})
		}
	}
	// No legal operation at all: every window is refuted at the root.
	masked := queries[0]
	masked.cfg.Assume = []bmc.PortConstraint{{Port: module.PortOp, Allowed: nil}}
	queries = append(queries, masked)

	verdicts := map[bmc.Verdict]int{}
	for i := range queries {
		q := &queries[i]
		q.want = bmc.CoverFresh(q.inst.Netlist, q.inst.Covers, q.cfg)
		verdicts[q.want.Verdict]++
	}
	if verdicts[bmc.Covered] == 0 || verdicts[bmc.Unreachable] == 0 {
		t.Fatalf("verdicts %v: want covered and unreachable queries in the mix", verdicts)
	}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 2; round++ {
				for _, i := range rand.New(rand.NewSource(int64(10*g + round))).Perm(len(queries)) {
					q := queries[i]
					if got := bmc.Cover(q.inst.Netlist, q.inst.Covers, q.cfg); !reflect.DeepEqual(got, q.want) {
						t.Errorf("goroutine %d, query %d: pooled Cover returned %v at depth %d with %+v, fresh %v at depth %d with %+v",
							g, i, got.Verdict, got.Depth, got.Stats, q.want.Verdict, q.want.Depth, q.want.Stats)
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
