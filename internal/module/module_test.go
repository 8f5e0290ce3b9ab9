package module_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/alu"
	"repro/internal/cell"
	"repro/internal/fpu"
	"repro/internal/module"
	"repro/internal/netlist"
)

func TestFrequencyMHz(t *testing.T) {
	m := &module.Module{PeriodPs: 4000}
	if m.FrequencyMHz() != 250 {
		t.Errorf("got %v", m.FrequencyMHz())
	}
}

func TestDriverStallDetection(t *testing.T) {
	// A degenerate "module" whose out_valid is tied low: Exec must time
	// out and report the stall.
	b := netlist.NewBuilder("dead")
	clk := b.Clock("clk")
	iv := b.Input(module.PortInValid)
	op := b.InputBus(module.PortOp, 2)
	a := b.InputBus(module.PortA, 32)
	bb := b.InputBus(module.PortB, 32)
	_ = op
	zero := b.Add(cell.TIE0)
	res := make(netlist.Bus, 32)
	for i := range res {
		res[i] = b.AddDFF(a[i], clk, false)
	}
	_ = bb
	_ = iv
	b.OutputBus(module.PortResult, res)
	b.OutputBus(module.PortFlags, netlist.Bus{zero})
	b.Output(module.PortOutValid, zero)
	nl := b.MustBuild()
	m := &module.Module{Name: "DEAD", Netlist: nl, Latency: 2, OpWidth: 2, FlagWidth: 1}
	d := module.NewDriver(m)
	if _, _, ok := d.Exec(0, 1, 2); ok {
		t.Fatal("dead module must report a stall")
	}
}

func TestExecPipelinedDrainFailure(t *testing.T) {
	m := alu.Build()
	d := module.NewDriver(m)
	res, flags, ok := d.ExecPipelined(
		[]uint32{0, 1}, []uint32{5, 9}, []uint32{3, 4})
	if !ok || len(res) != 2 || len(flags) != 2 {
		t.Fatalf("pipelined exec failed: %v %v %v", res, flags, ok)
	}
	if res[0] != 8 || res[1] != 5 {
		t.Errorf("results = %v", res)
	}
}

// TestGoldenIsAUnit: a module's golden model stands wherever a backend
// does — Golden.Exec is Golden with ok = true, for every legal op of
// both units over arbitrary operands.
func TestGoldenIsAUnit(t *testing.T) {
	for _, m := range []*module.Module{alu.Build(), fpu.Build()} {
		var u module.Unit = m.Golden
		same := func(op, a, b uint32) bool {
			for op %= 1 << m.OpWidth; !m.OpValid(op); op-- {
			}
			r, f, ok := u.Exec(op, a, b)
			wr, wf := m.Golden(op, a, b)
			return ok && r == wr && f == wf
		}
		if err := quick.Check(same, &quick.Config{MaxCount: 2000, Rand: rand.New(rand.NewSource(1))}); err != nil {
			t.Errorf("%s: %v", m.Name, err)
		}
	}
}
