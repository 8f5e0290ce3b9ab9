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
// equals the scalar oracle's. The specs fault the valid chain (valid_q
// into out_valid_q) and a result flip-flop, on the ALU and the FPU.
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
				want   retKind
			}{
				// out_valid keeps its 1 into the next op's first check.
				{"early", []fault.Spec{setup(vq, ovq, fault.C1)}, retEarly},
				// Result bit 0 captures 1 at every clock.
				{"value", []fault.Spec{setup(res, res, fault.C1)}, retValue},
				// out_valid misses valid_q's pulse, and the op stalls.
				{"late, stalled", []fault.Spec{setup(vq, ovq, fault.C0)}, retWait},
				// valid_q samples the LFSR at every clock, so out_valid
				// rises again later in the same wait loop.
				{"late, answered", []fault.Spec{setup(late, ovq, fault.C0), setup(vq, vq, fault.CRandom)}, retWait},
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
			got := make([]*retirement, len(rows))
			for _, idxs := range waves {
				pb, err := runWave(context.Background(), &cfg, g, idxs)
				if err != nil {
					t.Fatal(err)
				}
				for _, ret := range pb.rets {
					got[idxs[ret.lane-1]] = ret
				}
			}
			for i, r := range rows {
				if got[i] == nil || got[i].kind != r.want {
					t.Errorf("%s (%s): retired as %+v, want kind %d", r.name, cfg.Specs[i].String(), got[i], r.want)
				}
			}
			if scalar, packed := scalarJSON(t, cfg), runJSON(t, cfg); !bytes.Equal(scalar, packed) {
				t.Errorf("packed report differs from scalar:\n--- scalar\n%s\n--- packed\n%s", scalar, packed)
			}
		})
	}
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
