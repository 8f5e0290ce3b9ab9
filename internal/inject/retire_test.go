package inject

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/alu"
	"repro/internal/fault"
	"repro/internal/fpu"
	"repro/internal/lift"
	"repro/internal/module"
	"repro/internal/netlist"
	"repro/internal/sta"
)

// TestRetirementShapes: a wave retires lanes in each of the three ways a
// response can leave the golden lane's — out_valid early, a different
// value, out_valid late — and the report their continuations write
// equals the scalar oracle's. The shape is read off the held lane after
// the wave: a settle shows the out_valid and response its check saw.
// The specs fault the valid chain (valid_q into out_valid_q) and a
// result flip-flop, on the ALU and the FPU.
func TestRetirementShapes(t *testing.T) {
	setup := func(start, end netlist.CellID, c fault.CValue) fault.Spec {
		return fault.Spec{Type: sta.Setup, Start: start, End: end, C: c, Edge: fault.AnyChange}
	}
	for _, m := range []*module.Module{alu.Build(), fpu.Build()} {
		t.Run(m.Name, func(t *testing.T) {
			nl := m.Netlist
			vq, ovq := cellNamed(t, nl, "valid_q"), cellNamed(t, nl, "out_valid_q")
			res := cellDriving(t, nl, portsOf(nl).resBits[0])
			// The answered late row's first site: on the FPU, busy_q
			// makes out_valid answer in the wait loop's last iteration,
			// the one a resume that skipped the failed check's clock edge
			// would miss.
			late := vq
			if m.Name == "FPU" {
				late = cellNamed(t, nl, "busy_q")
			}
			rows := []struct {
				name   string
				faults []fault.Spec
				want   string
			}{
				// out_valid keeps its 1 into the next op's first check.
				{"early", []fault.Spec{setup(vq, ovq, fault.C1)}, "early"},
				// Result bit 0 captures 1 at every clock.
				{"value", []fault.Spec{setup(res, res, fault.C1)}, "value"},
				// out_valid misses valid_q's pulse, and the op stalls.
				{"late, stalled", []fault.Spec{setup(vq, ovq, fault.C0)}, "late"},
				// valid_q samples the LFSR at every clock, so out_valid
				// rises again later in the same wait loop.
				{"late, answered", []fault.Spec{setup(late, ovq, fault.C0), setup(vq, vq, fault.CRandom)}, "late"},
			}
			img, err := lift.RandomSuite(m, 5, 1).Image()
			if err != nil {
				t.Fatal(err)
			}
			cfg := Config{Module: m, Image: img, MemSize: memSize, MaxCycles: 20_000_000}
			waves := map[Class][]int{}
			for i, r := range rows {
				s := Spec{Class: StuckAt, Unit: m.Name, Faults: r.faults}
				if len(r.faults) > 1 {
					s.Class = MultiFault
				}
				cfg.Specs = append(cfg.Specs, s)
				waves[s.Class] = append(waves[s.Class], i)
			}
			g, err := prepare(&cfg)
			if err != nil {
				t.Fatal(err)
			}
			got := make([]string, len(rows))
			for _, idxs := range waves {
				pb, err := runWave(context.Background(), &cfg, g, idxs)
				if err != nil {
					t.Fatal(err)
				}
				pb.pe.Settle()
				for _, ret := range pb.rets {
					got[idxs[ret.lane-1]] = shapeOf(pb, g, ret)
				}
			}
			for i, r := range rows {
				if got[i] != r.want {
					t.Errorf("%s (%s): the held lane shows %q, want %q", r.name, cfg.Specs[i].String(), got[i], r.want)
				}
			}
			if scalar, packed := scalarJSON(t, cfg), runJSON(t, cfg); !bytes.Equal(scalar, packed) {
				t.Errorf("packed report differs from scalar:\n--- scalar\n%s\n--- packed\n%s", scalar, packed)
			}
		})
	}
}

// shapeOf reads how settled held lane ret.lane answers at the check
// that retired it: "late" with out_valid low, "early" with out_valid
// high at a check before the unit's latency has run out (so before any
// golden response can rise), "value" with out_valid high later and a
// response other than the golden run's, and "golden" otherwise, which
// no retired lane may show.
func shapeOf(pb *packedBackend, g *goldenInfo, ret *retirement) string {
	r, f := pb.laneValues(pb.pe, ret.lane)
	u := g.trace[ret.op]
	switch {
	case !pb.pe.Lane(pb.ovNet, ret.lane):
		return "late"
	case ret.wait < pb.m.Latency-1:
		return "early"
	case r != u.r || f != u.f:
		return "value"
	}
	return "golden"
}

func cellNamed(t *testing.T, nl *netlist.Netlist, name string) netlist.CellID {
	t.Helper()
	for i := range nl.Cells {
		if nl.Cells[i].Name == name {
			return netlist.CellID(i)
		}
	}
	t.Fatalf("%s has no cell %s", nl.Name, name)
	return -1
}

func cellDriving(t *testing.T, nl *netlist.Netlist, n netlist.NetID) netlist.CellID {
	t.Helper()
	for i := range nl.Cells {
		if nl.Cells[i].Out == n {
			return netlist.CellID(i)
		}
	}
	t.Fatalf("%s: nothing drives net %s", nl.Name, nl.NetName(n))
	return -1
}
