package guard

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/alu"
	"repro/internal/fpu"
	"repro/internal/module"
	"repro/internal/netlist"
)

// The gate-level checker lists must mirror the behavioural registry:
// same names, same canonical order.
func TestGateGuardNamesMatchRegistry(t *testing.T) {
	if got, want := alu.GuardNames, Names(UnitALU); !reflect.DeepEqual(got, want) {
		t.Errorf("alu.GuardNames = %v, registry has %v", got, want)
	}
	if got, want := fpu.GuardNames, Names(UnitFPU); !reflect.DeepEqual(got, want) {
		t.Errorf("fpu.GuardNames = %v, registry has %v", got, want)
	}
}

// checkBasePrefix asserts the guarded netlist is the base netlist plus
// appended checker cells and outputs — cell-for-cell identical up front,
// so fault universes sampled on the base build stay valid on the guarded
// one.
func checkBasePrefix(t *testing.T, base, g *netlist.Netlist, guards []string) {
	t.Helper()
	if len(g.Cells) <= len(base.Cells) {
		t.Fatalf("guarded netlist has %d cells, base %d — no checkers appended?",
			len(g.Cells), len(base.Cells))
	}
	for i := range base.Cells {
		if !reflect.DeepEqual(base.Cells[i], g.Cells[i]) {
			t.Fatalf("cell %d differs: base %+v, guarded %+v", i, base.Cells[i], g.Cells[i])
		}
	}
	if !reflect.DeepEqual(base.Inputs, g.Inputs) {
		t.Errorf("input ports differ")
	}
	if g.NumNets < base.NumNets {
		t.Errorf("guarded has fewer nets (%d) than base (%d)", g.NumNets, base.NumNets)
	}
	if g.ClockRoot != base.ClockRoot {
		t.Errorf("clock root moved: %d -> %d", base.ClockRoot, g.ClockRoot)
	}
	want := len(base.Outputs) + len(guards) + 1
	if len(g.Outputs) != want {
		t.Fatalf("guarded has %d outputs, want %d", len(g.Outputs), want)
	}
	for i := range base.Outputs {
		if !reflect.DeepEqual(base.Outputs[i], g.Outputs[i]) {
			t.Errorf("output %d (%s) differs", i, base.Outputs[i].Name)
		}
	}
	for i, name := range guards {
		if got := g.Outputs[len(base.Outputs)+i].Name; got != "g_"+name {
			t.Errorf("appended output %d = %q, want %q", i, got, "g_"+name)
		}
	}
	if got := g.Outputs[len(g.Outputs)-1].Name; got != "guard_fire" {
		t.Errorf("last output = %q, want guard_fire", got)
	}
}

func TestGuardedNetlistBasePrefixALU(t *testing.T) {
	checkBasePrefix(t, alu.Build().Netlist,
		alu.BuildGuarded(alu.GuardNames...).Netlist, alu.GuardNames)
}

func TestGuardedNetlistBasePrefixFPU(t *testing.T) {
	checkBasePrefix(t, fpu.Build().Netlist,
		fpu.BuildGuarded(fpu.GuardNames...).Netlist, fpu.GuardNames)
}

// assertSilent checks every per-guard alarm and the combined output
// after an exec. Alarms are sticky, so a single spurious fire poisons
// the rest of the run — first failure names the op that tripped it.
func assertSilent(t *testing.T, d *module.Driver, names []string, ctx string) {
	t.Helper()
	for _, name := range names {
		if d.Sim.Output("g_"+name) != 0 {
			t.Fatalf("gate guard %s fired on clean %s", name, ctx)
		}
	}
	if d.Sim.Output("guard_fire") != 0 {
		t.Fatalf("guard_fire raised on clean %s", ctx)
	}
}

// TestGateGuardsSilentALU drives the fully-guarded ALU netlist over
// boundary and random operands: results must match the golden model
// bit-for-bit (the checkers may not perturb the datapath) and no alarm
// may ever latch.
func TestGateGuardsSilentALU(t *testing.T) {
	m := alu.BuildGuarded(alu.GuardNames...)
	d := module.NewDriver(m)
	check := func(op alu.Op, a, b uint32) {
		t.Helper()
		res, flags, ok := d.Exec(uint32(op), a, b)
		if !ok {
			t.Fatalf("guarded ALU stalled on %v(%08x,%08x)", op, a, b)
		}
		if wantR, wantF := alu.Eval(op, a, b), alu.Flags(a, b); res != wantR || flags != wantF {
			t.Fatalf("guarded ALU %v(%08x,%08x) = %08x/%03b, want %08x/%03b",
				op, a, b, res, flags, wantR, wantF)
		}
		assertSilent(t, d, alu.GuardNames, "ALU op")
	}
	boundary := []uint32{0, 1, 2, 31, 32, 0x7fffffff, 0x80000000, 0xfffffffe, 0xffffffff, 0xaaaaaaaa, 0x55555555}
	for op := alu.Op(0); op.Valid(); op++ {
		for _, a := range boundary {
			for _, b := range boundary {
				check(op, a, b)
			}
		}
	}
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 1500; i++ {
		check(alu.Op(rng.Intn(alu.NumOps)), rng.Uint32(), rng.Uint32())
	}
}

// TestGateGuardsSilentFPU is the FPU counterpart: the full special-value
// matrix through the arithmetic ops (where the invariants have their
// corner cases) plus random operands through every op.
func TestGateGuardsSilentFPU(t *testing.T) {
	m := fpu.BuildGuarded(fpu.GuardNames...)
	d := module.NewDriver(m)
	check := func(op fpu.Op, a, b uint32) {
		t.Helper()
		res, flags, ok := d.Exec(uint32(op), a, b)
		if !ok {
			t.Fatalf("guarded FPU stalled on %v(%08x,%08x)", op, a, b)
		}
		if wantR, wantF := fpu.Eval(op, a, b); res != wantR || flags != wantF {
			t.Fatalf("guarded FPU %v(%08x,%08x) = %08x/%05b, want %08x/%05b",
				op, a, b, res, flags, wantR, wantF)
		}
		assertSilent(t, d, fpu.GuardNames, "FPU op")
	}
	for _, op := range []fpu.Op{fpu.OpFadd, fpu.OpFsub, fpu.OpFmul} {
		for _, a := range fpuSpecials {
			for _, b := range fpuSpecials {
				check(op, a, b)
			}
		}
	}
	rng := rand.New(rand.NewSource(32))
	for i := 0; i < 1200; i++ {
		check(fpu.Op(rng.Intn(fpu.NumOps)), rng.Uint32(), rng.Uint32())
	}
}

// TestUnitGateCosts exercises the costing path: every guard must cost a
// positive number of cells, the swap guards must dominate (they
// duplicate whole datapaths), and the unknown-unit error must surface.
// The setup WNS of every cumulative build is pinned to the value the
// scalar sta.Analyze reported before the costing moved to AnalyzeCorners.
func TestUnitGateCosts(t *testing.T) {
	if testing.Short() {
		t.Skip("STA costing in -short mode")
	}
	wantWNS := map[string]uint64{ // math.Float64bits(WNSSetupPs)
		"ALU/res3": 0xc09d6e9ea81a3e20, "ALU/parity": 0xc09d6e9ea81a3e20,
		"ALU/bounds": 0xc09d6e9ea81a3e20, "ALU/flags": 0xc09d6e9ea81a3e20,
		"FPU/sign": 0xc06e42b97b18eb00, "FPU/exprange": 0xc073339b561f6340,
		"FPU/nanprop": 0xc073339b561f6340, "FPU/addswap": 0xc073339b561f6340,
		"FPU/mulswap": 0xc073339b561f6340,
	}
	for _, unit := range []string{UnitALU, UnitFPU} {
		costs, err := UnitGateCosts(unit)
		if err != nil {
			t.Fatalf("UnitGateCosts(%s): %v", unit, err)
		}
		if len(costs) != len(Names(unit)) {
			t.Fatalf("%s: %d cost rows, want %d", unit, len(costs), len(Names(unit)))
		}
		byName := map[string]GateCost{}
		for _, gc := range costs {
			if gc.Cells <= 0 {
				t.Errorf("%s guard %s: non-positive marginal cell count %d", unit, gc.Guard, gc.Cells)
			}
			if gc.DFFs < 1 {
				t.Errorf("%s guard %s: expected at least the alarm DFF, got %d", unit, gc.Guard, gc.DFFs)
			}
			if got := math.Float64bits(gc.WNSSetupPs); got != wantWNS[unit+"/"+gc.Guard] {
				t.Errorf("%s guard %s: WNS %v (%#x), pinned %#x", unit, gc.Guard, gc.WNSSetupPs, got, wantWNS[unit+"/"+gc.Guard])
			}
			byName[gc.Guard] = gc
			t.Logf("%s/%s: +%d cells (%.1f%%), +%d dffs, WNS %.1fps (delta %.1fps)",
				unit, gc.Guard, gc.Cells, gc.CellsPct, gc.DFFs, gc.WNSSetupPs, gc.WNSDeltaPs)
		}
		if unit == UnitFPU {
			for _, cheap := range []string{"sign", "nanprop"} {
				if byName[cheap].Cells >= byName["mulswap"].Cells {
					t.Errorf("FPU %s (%d cells) should be cheaper than mulswap (%d)",
						cheap, byName[cheap].Cells, byName["mulswap"].Cells)
				}
			}
		}
	}
	if _, err := UnitGateCosts("DSP"); err == nil {
		t.Error("unknown unit accepted")
	}
}
