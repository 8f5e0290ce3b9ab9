// scale_test.go is the CI-budget end-to-end check of the million-gate
// compile path at its 10^5-cell operating point: generate a parametric
// pipelined core, round-trip it through the streaming Verilog
// writer/parser, compile it for both the evaluation engine and the
// timing engine, and cross-check incremental re-timing against full
// multi-corner STA on random SP deltas. The 10^6-cell point runs in the
// bench harness (bench_scale_test.go), not here.
package vega_test

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/aging"
	"repro/internal/cell"
	"repro/internal/engine"
	"repro/internal/netlist"
	"repro/internal/sta"
	"repro/internal/synth"
)

func TestScalePipelineEndToEnd(t *testing.T) {
	const target = 100_000
	nl := synth.PipelineForCells(target).Build()
	st := nl.Stats()
	if st.Cells < target*9/10 || st.Cells > target*11/10 {
		t.Fatalf("PipelineForCells(%d) built %d cells", target, st.Cells)
	}

	// Streaming Verilog round trip preserves the netlist shape.
	var buf bytes.Buffer
	if err := nl.WriteVerilog(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := netlist.ParseVerilogReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Stats() != st {
		t.Fatalf("round trip changed the netlist: %+v -> %+v", st, back.Stats())
	}

	// Both compile paths accept the core.
	prog := engine.Compile(nl)
	if len(prog.Ops) != st.Comb+st.ClockCells {
		t.Fatalf("compiled %d ops, want %d comb + %d clock", len(prog.Ops), st.Comb, st.ClockCells)
	}
	if len(prog.DFFs) != st.DFFs {
		t.Fatalf("compiled %d DFFs, want %d", len(prog.DFFs), st.DFFs)
	}

	// Multi-corner STA with incremental cross-check: every update's
	// Results must deep-equal a from-scratch AnalyzeCorners over the
	// same mutated profile.
	lib := cell.Lib28()
	rng := rand.New(rand.NewSource(5))
	prof := &engine.Profile{Cycles: 1, SP: make([]float64, nl.NumNets)}
	for i := range prof.SP {
		prof.SP[i] = rng.Float64()
	}
	cfg := sta.BatchConfig{
		PeriodPs:    sta.CriticalDelay(nl, lib) * 1.02,
		Base:        lib,
		Model:       aging.Default(),
		Profile:     prof,
		PerEndpoint: 40,
		MaxPaths:    500,
	}
	corners := []sta.Corner{{}, {Years: 5}, {Years: 10}}
	inc := sta.NewIncremental(nl, cfg, corners)
	defer inc.Close()
	if got, want := inc.Results(), sta.AnalyzeCorners(nl, cfg, corners); !reflect.DeepEqual(got, want) {
		t.Fatal("initial incremental Results diverge from AnalyzeCorners")
	}
	for round := 0; round < 3; round++ {
		changed := make([]netlist.NetID, 50)
		for i := range changed {
			n := netlist.NetID(rng.Intn(nl.NumNets))
			prof.SP[n] = rng.Float64()
			changed[i] = n
		}
		got := inc.UpdateSP(changed)
		want := sta.AnalyzeCorners(nl, cfg, corners)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: incremental diverges from full analysis", round)
		}
		if inc.LastRetimed >= len(nl.Topo())/2 {
			t.Errorf("round %d: cone covered %d of %d ops — not sparse", round, inc.LastRetimed, len(nl.Topo()))
		}
	}
}
