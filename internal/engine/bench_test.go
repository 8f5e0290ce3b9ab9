package engine_test

import (
	"math/rand"
	"testing"

	"repro/internal/alu"
	"repro/internal/engine"
	"repro/internal/sim"
)

// BenchmarkSPProfile measures SP-profile collection under random
// stimulus on the ALU netlist, in both evaluators. The unit of work is
// one lane-cycle (one stimulus vector observed for one clock cycle), so
// ns/op is directly comparable: the scalar path runs b.N simulator
// steps, the packed path runs b.N/64 steps of 64 lanes each. The packed
// speedup recorded in EXPERIMENTS.md is scalar ns/op divided by packed
// ns/op.
func BenchmarkSPProfile(b *testing.B) {
	nl := alu.Build().Netlist
	prog := engine.Cached(nl)

	b.Run("scalar", func(b *testing.B) {
		s := sim.New(nl)
		s.EnableSP()
		rng := rand.New(rand.NewSource(1))
		var bufs [][]bool
		for _, p := range nl.Inputs {
			bufs = append(bufs, make([]bool, len(p.Bits)))
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for pi, p := range nl.Inputs {
				for j := range bufs[pi] {
					bufs[pi][j] = rng.Int63()&1 == 1
				}
				s.SetInputBits(p.Name, bufs[pi])
			}
			s.Step()
		}
		_ = s.Profile()
	})

	b.Run("packed", func(b *testing.B) {
		e := engine.NewPacked(prog)
		e.EnableSP()
		rng := rand.New(rand.NewSource(1))
		b.ResetTimer()
		for done := 0; done < b.N; done += engine.Lanes {
			for _, p := range nl.Inputs {
				for _, n := range p.Bits {
					e.SetNet(n, rng.Uint64())
				}
			}
			e.Step()
		}
		_ = e.Profile()
	})
}

// BenchmarkRandomSP measures the end-to-end profile-free SP path
// (Packed.RunRandom with SP on) per packed cycle.
func BenchmarkRandomSP(b *testing.B) {
	e := engine.NewPacked(engine.Cached(alu.Build().Netlist))
	e.EnableSP()
	b.ResetTimer()
	e.RunRandom(b.N, 1)
}
