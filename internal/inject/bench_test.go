package inject

import (
	"context"
	"testing"

	"repro/internal/alu"
	"repro/internal/fpu"
	"repro/internal/lift"
	"repro/internal/module"
)

// benchCampaign runs one campaign per iteration.
// The suite image (data segment at 256 KiB) fits in half the default
// 1 MiB arena.
func benchCampaign(b *testing.B, m *module.Module, cases int, perClass int) {
	suite := lift.RandomSuite(m, cases, 7)
	img, err := suite.Image()
	if err != nil {
		b.Fatal(err)
	}
	cfg := Config{
		Module:      m,
		Image:       img,
		Mode:        "standalone",
		Specs:       SampleUniverse(m, nil, perClass, 42),
		Seed:        42,
		MemSize:     1 << 19,
		MaxCycles:   20_000_000,
		Parallelism: 1,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := Run(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(rep.Completed), "injections")
	}
}

// BenchmarkCampaign measures a tiny standalone ALU campaign end to end
// (golden run + 4 classes x 2 injections, sequential) — the CI bench
// smoke for the injection plane.
func BenchmarkCampaign(b *testing.B) { benchCampaign(b, alu.Build(), 6, 2) }

// BenchmarkPackedCampaign measures a full-occupancy FPU campaign — 63
// injections per class fill the stuck and multi waves completely. The
// FPU is the unit where packing earns its keep: the netlist is ~6x the
// ALU's, and one compiled wave is amortized across 63 faults whose
// diverging lanes retire early.
func BenchmarkPackedCampaign(b *testing.B) { benchCampaign(b, fpu.Build(), 6, 63) }
