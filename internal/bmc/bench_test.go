package bmc_test

import (
	"testing"

	"repro/internal/alu"
	"repro/internal/bmc"
	"repro/internal/cell"
	"repro/internal/fault"
	"repro/internal/fpu"
	"repro/internal/lift"
	"repro/internal/module"
	"repro/internal/netlist"
	"repro/internal/sta"
)

// benchSpec picks the same realistic setup-violating pair the end-to-end
// test uses: the top result-bit register as the endpoint and the operand
// register latching a[msb] as the start.
func benchSpec(m *module.Module) fault.Spec {
	nl := m.Netlist
	out, _ := nl.FindOutput(module.PortResult)
	end := nl.Driver(out.Bits[len(out.Bits)-1])
	inPort, _ := nl.FindInput(module.PortA)
	start := netlist.NoCell
	for _, cid := range nl.Readers()[inPort.Bits[len(inPort.Bits)-1]] {
		if nl.Cells[cid].Kind == cell.DFF {
			start = cid
		}
	}
	if start == netlist.NoCell || end == netlist.NoCell {
		panic("bench: could not locate DFF pair")
	}
	return fault.Spec{Type: sta.Setup, Start: start, End: end, C: fault.C1}
}

// BenchmarkCover times the incremental engine on the shadow replicas of
// the real ALU and FPU at the default bound of 8 cycles, under the full
// assume-environment Error Lifting uses (legal ops, issue cadence,
// handshake observability).
func BenchmarkCover(b *testing.B) {
	for _, unit := range []struct {
		name  string
		build func() *module.Module
	}{
		{"ALU", alu.Build},
		{"FPU", fpu.Build},
	} {
		m := unit.build()
		inst := fault.ShadowReplica(m.Netlist, benchSpec(m))
		cfg := lift.BMCConfig(m, lift.Config{MaxDepth: 8})
		b.Run(unit.name+"/incremental", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := bmc.Cover(inst.Netlist, inst.Covers, cfg)
				if res.Verdict != bmc.Covered {
					b.Fatalf("verdict %v", res.Verdict)
				}
			}
		})
	}
}
