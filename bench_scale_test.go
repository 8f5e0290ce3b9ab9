// bench_scale_test.go is the million-gate scaling record behind
// BENCH_scale.json: every stage of the compile path — streaming Verilog
// parse, evaluation-engine compile, timing-graph compile, full
// multi-corner STA, and incremental re-timing under sparse SP deltas —
// benchmarked at 10^4, 10^5 and 10^6 cells of the parametric pipelined
// core. The incremental case perturbs 100 net SPs per iteration
// (<0.1% of cells at every size), the profile-refinement shape the
// incremental engine exists for.
package vega_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/aging"
	"repro/internal/cell"
	"repro/internal/engine"
	"repro/internal/netlist"
	"repro/internal/sta"
	"repro/internal/synth"
)

// scaleCase prepares one netlist size with a seeded random SP profile
// and a 4-corner lifetime grid at a just-passing period.
func scaleCase(target int) (*netlist.Netlist, sta.BatchConfig, []sta.Corner) {
	nl := synth.PipelineForCells(target).Build()
	lib := cell.Lib28()
	rng := rand.New(rand.NewSource(int64(target)))
	prof := &engine.Profile{Cycles: 1, SP: make([]float64, nl.NumNets)}
	for i := range prof.SP {
		prof.SP[i] = rng.Float64()
	}
	cfg := sta.BatchConfig{
		PeriodPs:    sta.CriticalDelay(nl, lib) * 1.05,
		Base:        lib,
		Model:       aging.Default(),
		Profile:     prof,
		PerEndpoint: 40,
	}
	corners := []sta.Corner{{}, {Years: 3.3}, {Years: 6.6}, {Years: 10}}
	return nl, cfg, corners
}

func BenchmarkScale(b *testing.B) {
	for _, target := range []int{10_000, 100_000, 1_000_000} {
		nl, cfg, corners := scaleCase(target)
		name := fmt.Sprintf("cells=%d", len(nl.Cells))
		src := nl.Verilog()

		b.Run(name+"/parse", func(b *testing.B) {
			b.SetBytes(int64(len(src)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := netlist.ParseVerilog(src); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(name+"/compile-engine", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				engine.Compile(nl)
			}
		})
		b.Run(name+"/compile-graph", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sta.CompileGraph(nl)
			}
		})
		b.Run(name+"/sta-full", func(b *testing.B) {
			sta.CachedGraph(nl) // compile outside the timed region
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sta.AnalyzeCorners(nl, cfg, corners)
			}
		})
		b.Run(name+"/sta-incremental", func(b *testing.B) {
			rng := rand.New(rand.NewSource(7))
			inc := sta.NewIncremental(nl, cfg, corners)
			defer inc.Close()
			inc.Results()
			changed := make([]netlist.NetID, 100)
			retimed := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := range changed {
					n := netlist.NetID(rng.Intn(nl.NumNets))
					cfg.Profile.SP[n] = rng.Float64()
					changed[j] = n
				}
				inc.UpdateSP(changed)
				retimed += inc.LastRetimed
			}
			b.ReportMetric(float64(retimed)/float64(b.N), "retimed-ops/op")
		})
	}
}
