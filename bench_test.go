// bench_test.go holds one testing.B benchmark per table and figure of
// the paper's evaluation. Each benchmark regenerates its artifact end to
// end and reports headline numbers as custom metrics, so
//
//	go test -bench=. -benchmem
//
// reproduces the entire evaluation. The printed rows/series are the
// reproduction record kept in EXPERIMENTS.md.
package vega_test

import (
	"fmt"
	"math/rand"
	"testing"

	vega "repro"
	"repro/internal/aging"
	"repro/internal/bmc"
	"repro/internal/cell"
	"repro/internal/core"
	"repro/internal/demo"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/lift"
	"repro/internal/netlist"
	"repro/internal/sim"
	"repro/internal/sta"
)

// fastCfg profiles a representative subset of workloads so the full
// evaluation fits in a benchmark run; the cmd/ binaries run everything.
func fastCfg(mitigation bool) vega.Config {
	return vega.Config{
		Workloads: []string{"crc32", "minver", "matmult-int", "st", "statemate"},
		Lift:      vega.LiftConfig{Mitigation: mitigation},
	}
}

// BenchmarkTable1_SPProfile regenerates the Section 3 SP profile: signal
// probability simulation of the demo adder under a biased workload.
func BenchmarkTable1_SPProfile(b *testing.B) {
	nl := demo.Adder2()
	for i := 0; i < b.N; i++ {
		s := engine.NewPacked(engine.Cached(nl))
		s.EnableSP()
		s.ObserveLanes(1)
		for c := 0; c < 10000; c++ {
			s.SetInput("a", uint64(c*7%4))
			s.SetInput("b", uint64(c*c%3))
			s.Step()
		}
		prof := s.Profile()
		b.ReportMetric(prof.SP[nl.Cells[demo.CellIDByName(nl, "XOR$7")].Out], "XOR$7-SP")
	}
}

// BenchmarkTable2_TraceGeneration regenerates the Table 2 trace: failure
// model instrumentation + BMC on the demo adder.
func BenchmarkTable2_TraceGeneration(b *testing.B) {
	nl := demo.Adder2()
	spec := fault.Spec{
		Type:  sta.Setup,
		Start: demo.CellIDByName(nl, "DFF$4"),
		End:   demo.CellIDByName(nl, "DFF$10"),
		C:     fault.C1,
	}
	for i := 0; i < b.N; i++ {
		inst := fault.ShadowReplica(nl, spec)
		res := bmc.Cover(inst.Netlist, inst.Covers, bmc.Config{})
		if res.Verdict != bmc.Covered || !bmc.Replay(inst.Netlist, res.Trace) {
			b.Fatal("trace generation failed")
		}
		b.ReportMetric(float64(res.Trace.CoverCycle+1), "cover-cycle")
	}
}

// BenchmarkFigure4_AgingLibrary regenerates the aging-aware timing
// library: the delay-degradation surface over (SP, time).
func BenchmarkFigure4_AgingLibrary(b *testing.B) {
	model := aging.Default()
	for i := 0; i < b.N; i++ {
		lib := aging.NewLibrary(cell.Lib28(), model, 10)
		worst := lib.Factor(cell.XOR2, 0)
		b.ReportMetric((worst-1)*100, "XOR-SP0-deg-%")
	}
}

// BenchmarkFigure8_DelayHistogram regenerates the per-cell delay-increase
// distribution for the ALU (the FPU variant runs inside Table 3's
// benchmark, which analyzes both units).
func BenchmarkFigure8_DelayHistogram(b *testing.B) {
	for i := 0; i < b.N; i++ {
		w := vega.NewALU(fastCfg(false))
		if _, err := w.AgingAnalysis(); err != nil {
			b.Fatal(err)
		}
		bins := w.Figure8(12)
		peak := 0.0
		for _, bin := range bins {
			if bin.Frac > peak {
				peak = bin.Frac
			}
		}
		b.ReportMetric(peak*100, "modal-bin-%")
	}
}

// BenchmarkTable3_AgingAwareSTA regenerates the aged STA summary for
// both units.
func BenchmarkTable3_AgingAwareSTA(b *testing.B) {
	for i := 0; i < b.N; i++ {
		wALU := vega.NewALU(fastCfg(false))
		if _, err := wALU.AgingAnalysis(); err != nil {
			b.Fatal(err)
		}
		wFPU := vega.NewFPU(fastCfg(false))
		if _, err := wFPU.AgingAnalysis(); err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(wALU.STA.WNSSetup, "ALU-WNS-ps")
		b.ReportMetric(wFPU.STA.WNSSetup, "FPU-WNS-ps")
		b.ReportMetric(float64(wFPU.STA.NumSetupViolations), "FPU-setup-paths")
		b.ReportMetric(float64(wFPU.STA.NumHoldViolations), "FPU-hold-paths")
	}
}

// BenchmarkTable4_TestConstruction regenerates the error-lifting outcome
// tally for the ALU (the cheap unit; the cmd binary covers the FPU).
func BenchmarkTable4_TestConstruction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		w := vega.NewALU(fastCfg(false))
		if _, err := w.ErrorLifting(); err != nil {
			b.Fatal(err)
		}
		row := core.Table4("ALU", false, w.Results)
		b.ReportMetric(row.Pct(row.S), "S-%")
		b.ReportMetric(row.Pct(row.UR), "UR-%")
	}
}

// BenchmarkTable5_SuiteSize regenerates suite size and cycle cost.
func BenchmarkTable5_SuiteSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		w := vega.NewALU(fastCfg(false))
		if _, err := w.ErrorLifting(); err != nil {
			b.Fatal(err)
		}
		suite := w.Suite()
		cycles, err := vega.SuiteCycles(suite)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(suite.Cases)), "test-cases")
		b.ReportMetric(float64(cycles), "cycles")
	}
}

// BenchmarkTable6_DetectionQuality regenerates the detection-quality
// experiment: the ALU suite against every failing netlist in all three
// failure modes.
func BenchmarkTable6_DetectionQuality(b *testing.B) {
	w := vega.NewALU(fastCfg(false))
	if _, err := w.ErrorLifting(); err != nil {
		b.Fatal(err)
	}
	suite := w.Suite()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := w.TestQuality(suite)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].Pct(rows[0].Detected), "C0-detected-%")
		b.ReportMetric(rows[1].Pct(rows[1].Detected), "C1-detected-%")
		b.ReportMetric(rows[2].Pct(rows[2].Detected), "CR-detected-%")
	}
}

// BenchmarkTable7_VegaVsRandom regenerates the Vega-vs-random comparison
// (3 random seeds per iteration; the cmd binary uses 10).
func BenchmarkTable7_VegaVsRandom(b *testing.B) {
	w := vega.NewALU(fastCfg(false))
	if _, err := w.ErrorLifting(); err != nil {
		b.Fatal(err)
	}
	suite := w.Suite()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := w.VsRandom(suite, 3)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].VegaPct, "C0-vega-%")
		b.ReportMetric(rows[0].RandomPct, "C0-random-%")
	}
}

// BenchmarkFigure9_IntegrationOverhead regenerates the profile-guided
// integration overhead over the embench suite.
func BenchmarkFigure9_IntegrationOverhead(b *testing.B) {
	w := vega.NewALU(fastCfg(false))
	if _, err := w.ErrorLifting(); err != nil {
		b.Fatal(err)
	}
	suite := w.Suite()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := core.Figure9(suite, "-N", 0.01)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(core.MeanOverheadPct(rows), "mean-overhead-%")
	}
}

// BenchmarkSubstrate_* measure the load-bearing substrates so
// performance regressions in the simulator, solver, or CPU show up here.

// BenchmarkSubstrate_GateSim steps the ALU netlist on the scalar
// reference interpreter, the baseline the packed one is measured against.
func BenchmarkSubstrate_GateSim(b *testing.B) {
	m := vegaALUModule()
	s := sim.New(m)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.SetInput("a", uint64(i))
		s.SetInput("b", uint64(i*3))
		s.SetInput("in_valid", 1)
		s.Step()
	}
	b.ReportMetric(float64(len(m.Cells)), "cells")
}

// BenchmarkSubstrate_GateSimPacked drives the same ALU netlist through
// the engine's 64-lane bit-parallel evaluator under random stimulus.
// The unit of work is one lane-cycle, so ns/op compares directly with
// BenchmarkSubstrate_GateSim above.
func BenchmarkSubstrate_GateSimPacked(b *testing.B) {
	m := vegaALUModule()
	e := engine.NewPacked(engine.Cached(m))
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for done := 0; done < b.N; done += engine.Lanes {
		for _, p := range m.Inputs {
			for _, n := range p.Bits {
				e.SetNet(n, rng.Uint64())
			}
		}
		e.Step()
	}
	b.ReportMetric(float64(len(m.Cells)), "cells")
}

func vegaALUModule() *netlist.Netlist {
	w := vega.NewALU(vega.Config{})
	return w.Module.Netlist
}

// --- Ablation benchmarks for the design choices DESIGN.md calls out ---

// BenchmarkAblation_FuzzVsFormal compares the §6.3 fuzzing-based
// constructor against the formal (BMC) backend on the same aging-prone
// pairs: construction time is the benchmark metric, and each iteration
// reports how many variants every backend lifted successfully.
func BenchmarkAblation_FuzzVsFormal(b *testing.B) {
	w := vega.NewALU(fastCfg(false))
	if _, err := w.AgingAnalysis(); err != nil {
		b.Fatal(err)
	}
	pairs := w.STA.Pairs
	b.Run("formal", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ok := 0
			for _, p := range pairs {
				for _, r := range lift.Construct(w.Module, p.Pair, p.Type, lift.Config{}) {
					if r.Outcome == lift.Success {
						ok++
					}
				}
			}
			b.ReportMetric(float64(ok), "lifted")
		}
	})
	b.Run("fuzz-guided", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ok := 0
			for _, p := range pairs {
				for _, r := range lift.FuzzConstruct(w.Module, p.Pair, p.Type, lift.FuzzConfig{Seed: int64(i), Guided: true}) {
					if r.Outcome == lift.Success {
						ok++
					}
				}
			}
			b.ReportMetric(float64(ok), "lifted")
		}
	})
	b.Run("fuzz-unguided", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ok := 0
			for _, p := range pairs {
				for _, r := range lift.FuzzConstruct(w.Module, p.Pair, p.Type, lift.FuzzConfig{Seed: int64(i)}) {
					if r.Outcome == lift.Success {
						ok++
					}
				}
			}
			b.ReportMetric(float64(ok), "lifted")
		}
	})
}

// BenchmarkAblation_Conditioning measures what the reset-state
// conditioning op (§3.3.5) buys: detection rate of the C=0 failure mode
// with and without it.
func BenchmarkAblation_Conditioning(b *testing.B) {
	run := func(b *testing.B, disable bool) {
		cfg := fastCfg(false)
		cfg.Lift.DisableConditioning = disable
		w := vega.NewALU(cfg)
		if _, err := w.ErrorLifting(); err != nil {
			b.Fatal(err)
		}
		suite := w.Suite()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rows, err := w.TestQuality(suite)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(rows[0].Pct(rows[0].Detected), "C0-detected-%")
		}
	}
	b.Run("with-conditioning", func(b *testing.B) { run(b, false) })
	b.Run("without-conditioning", func(b *testing.B) { run(b, true) })
}

// BenchmarkAblation_PerEndpointCap measures the effect of the STA
// reporting cap on the violating-path census (Table 3 sensitivity).
func BenchmarkAblation_PerEndpointCap(b *testing.B) {
	w := vega.NewALU(fastCfg(false))
	if err := w.ProfileWorkloads(); err != nil {
		b.Fatal(err)
	}
	for _, cap := range []int{1, 10, 40, 400} {
		b.Run(fmt.Sprintf("cap-%d", cap), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := sta.AnalyzeCorners(w.Module.Netlist, sta.BatchConfig{
					PeriodPs: w.Module.PeriodPs, Scale: w.Scale, Base: cell.Lib28(),
					Model: aging.Default(), Profile: w.SPProfile, PerEndpoint: cap,
				}, []sta.Corner{{Years: 10}})[0]
				b.ReportMetric(float64(res.NumSetupViolations), "paths")
				b.ReportMetric(float64(len(res.Pairs)), "pairs")
			}
		})
	}
}

// BenchmarkOnset_FineLifetimeSweep times the workflow-level fine-grained
// onset sweep the batched multi-corner STA engine exists for: the
// `vega sta -sweep -sweep-step 0.25` grid — 41 lifetime corners from 0
// to 10 years — resolved in one AnalyzeCorners pass over the ALU. The
// SP profile is collected once outside the timer, exactly as the
// workflow caches it across sweeps.
func BenchmarkOnset_FineLifetimeSweep(b *testing.B) {
	w := vega.NewALU(fastCfg(false))
	if err := w.ProfileWorkloads(); err != nil {
		b.Fatal(err)
	}
	grid := make([]float64, 41)
	for i := range grid {
		grid[i] = 0.25 * float64(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pts, err := w.LifetimeSweep(grid)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(core.FailureOnsetYears(pts), "onset-years")
	}
}

// BenchmarkParallelism times the two heaviest fan-out phases at -j 1 and
// -j 4 (the pair the speedup claim compares). Results are byte-identical
// at every setting — TestParallelismDeterminism proves it — so the only
// thing parallelism changes is wall-clock time. The speedup is only
// visible on a multi-core runner; on one CPU the settings time alike.
func BenchmarkParallelism(b *testing.B) {
	for _, jobs := range []int{1, 4} {
		cfg := fastCfg(false)
		cfg.Parallelism = jobs
		b.Run(fmt.Sprintf("error-lifting/j-%d", jobs), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				w := vega.NewALU(cfg)
				if _, err := w.ErrorLifting(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	for _, jobs := range []int{1, 4} {
		cfg := fastCfg(false)
		cfg.Parallelism = jobs
		w := vega.NewALU(cfg)
		if _, err := w.ErrorLifting(); err != nil {
			b.Fatal(err)
		}
		suite := w.Suite()
		b.Run(fmt.Sprintf("test-quality/j-%d", jobs), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rows, err := w.TestQuality(suite)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(rows[0].Pct(rows[0].Detected), "C0-detected-%")
			}
		})
	}
}
