package sta

import (
	"math/rand"
	"testing"

	"repro/internal/aging"
	"repro/internal/alu"
	"repro/internal/cell"
	"repro/internal/fpu"
	"repro/internal/module"
)

// BenchmarkLifetimeSweep times the batched multi-corner engine on a
// 32-corner onset sweep of the real ALU and FPU netlists: one
// AnalyzeCorners call, so one corner grid, one SoA propagation and one
// enumeration fan-out.
//
// The corner windows model the engine's advertised use case (fine
// `-sweep-step` grids that bracket each unit's violation onset) rather
// than a full-life 0..10y grid: a coarse sweep has already located the
// bracket, and the fine sweep resolves the onset inside it. Measured
// onsets: the ALU's first setup violation appears near 0.31y (WNS
// +0.9ps at 0.3y, −6.2ps at 0.4y), so its window is [0, 0.5]y; the FPU
// ages into violation almost immediately (fresh WNS +48ps, +2.2ps at
// 0.002y, −1.0ps at 0.003y), so its window is the tight bracket
// [0, 0.003]y. Both use the workflow's signoff report bound of 40 paths
// per endpoint.
//
// The full-life row times a [0, 10]y grid of the same 32 corners at
// Parallelism 1: every aged FPU corner is deep past onset, so path
// enumeration over each corner's own violation cones dominates, and at
// one worker the pool hides none of it.
func BenchmarkLifetimeSweep(b *testing.B) {
	const nCorners = 32
	units := []struct {
		m        *module.Module
		maxYears float64
		ops, gap int
		seed     int64
		numOps   int
	}{
		{alu.Build(), 0.5, 300, 2, 5, alu.NumOps},
		{fpu.Build(), 0.003, 40, 40, 6, fpu.NumOps},
	}
	lib := cell.Lib28()
	model := aging.Default()
	for _, u := range units {
		corners := make([]Corner, nCorners)
		for i := range corners {
			corners[i] = Corner{Years: u.maxYears * float64(i) / float64(nCorners-1)}
		}
		scale := Calibrate(u.m.Netlist, lib, u.m.PeriodPs, u.m.SynthMargin)
		numOps := u.numOps
		prof := profileModule(u.m, u.ops, u.gap, u.seed, func(r *rand.Rand) (uint32, uint32, uint32) {
			return uint32(r.Intn(numOps)), r.Uint32(), r.Uint32()
		})
		cfg := BatchConfig{
			PeriodPs:    u.m.PeriodPs,
			Scale:       scale,
			Base:        lib,
			Model:       model,
			Profile:     prof,
			PerEndpoint: 40,
		}
		b.Run(u.m.Name+"/batched", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				AnalyzeCorners(u.m.Netlist, cfg, corners)
			}
		})
		full := make([]Corner, nCorners)
		for i := range full {
			full[i] = Corner{Years: 10 * float64(i) / float64(nCorners-1)}
		}
		cfg.Parallelism = 1
		b.Run(u.m.Name+"/full-life", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				AnalyzeCorners(u.m.Netlist, cfg, full)
			}
		})
	}
}
