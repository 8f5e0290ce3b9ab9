package guard

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/alu"
	"repro/internal/cpu"
	"repro/internal/embench"
	"repro/internal/fpu"
	"repro/internal/module"
)

// checkClean runs one architecturally-correct operation through every
// guard of the unit and fails on any fire — the zero-false-positive
// contract.
func checkCleanALU(t *testing.T, op alu.Op, a, b uint32) {
	t.Helper()
	r, f := alu.Eval(op, a, b), alu.Flags(a, b)
	for _, g := range All(UnitALU) {
		if !g.Check(uint32(op), a, b, r, f) {
			t.Fatalf("ALU guard %s fired on correct %v a=%#x b=%#x r=%#x f=%#x",
				g.Name, op, a, b, r, f)
		}
	}
}

func checkCleanFPU(t *testing.T, op fpu.Op, a, b uint32) {
	t.Helper()
	r, f := fpu.Eval(op, a, b)
	for _, g := range All(UnitFPU) {
		if !g.Check(uint32(op), a, b, r, f) {
			t.Fatalf("FPU guard %s fired on correct %v a=%#x b=%#x r=%#x f=%#x",
				g.Name, op, a, b, r, f)
		}
	}
}

// fpuSpecials is a directed operand set hitting every special-value
// category and the boundary neighborhoods where exponent-range and
// rounding-carry edge cases live.
var fpuSpecials = []uint32{
	0x00000000, 0x80000000, // ±0
	0x00000001, 0x80000001, // ±min subnormal
	0x007fffff, 0x807fffff, // ±max subnormal
	0x00800000, 0x80800000, // ±min normal
	0x7f7fffff, 0xff7fffff, // ±max normal
	0x3f800000, 0xbf800000, // ±1
	0x3f800001, 0xbf800001, // ±(1+ulp)
	0x34000000, 0xb4000000, // ±2^-23
	0x7f000000, 0xff000000, // ±2^127
	0x00ffffff, 0x80ffffff, // ± near double-subnormal sums
	0x7f800000, 0xff800000, // ±inf
	0x7fc00000, 0xffc00000, // ±canonical qNaN
	0x7fc00123, 0x7fffffff, // qNaN payloads
	0x7f800001, 0xff800001, // sNaN
	0x40490fdb, 0xc0490fdb, // ±pi
}

// TestGuardCleanDirected sweeps the full special-value cross product for
// every FPU op, and the boundary operand set for every ALU op.
func TestGuardCleanDirected(t *testing.T) {
	for op := fpu.Op(0); op < fpu.NumOps; op++ {
		for _, a := range fpuSpecials {
			for _, b := range fpuSpecials {
				checkCleanFPU(t, op, a, b)
			}
		}
	}
	aluSpecials := []uint32{0, 1, 2, 3, 31, 32, 33, 0x7fffffff, 0x80000000,
		0x80000001, 0xffffffff, 0xfffffffe, 0xaaaaaaaa, 0x55555555}
	for op := alu.Op(0); op < alu.NumOps; op++ {
		for _, a := range aluSpecials {
			for _, b := range aluSpecials {
				checkCleanALU(t, op, a, b)
			}
		}
	}
}

// TestGuardCleanRandomOps streams 100k random operand pairs per unit
// through every guard — the bulk statistical half of the
// false-positive-proof harness. Uniform uint32 operands hit NaN/Inf
// exponents with probability 2^-8 per operand, so the stream covers
// special paths thousands of times.
func TestGuardCleanRandomOps(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100000; i++ {
		a, b := rng.Uint32(), rng.Uint32()
		checkCleanFPU(t, fpu.Op(rng.Intn(fpu.NumOps)), a, b)
		checkCleanALU(t, alu.Op(rng.Intn(alu.NumOps)), a, b)
	}
}

// TestGuardCleanQuick re-states the contract as a testing/quick
// property per guard (rather than per operation), so a failure names
// the offending guard directly.
func TestGuardCleanQuick(t *testing.T) {
	cfg := &quick.Config{MaxCount: 2000}
	for _, g := range All(UnitFPU) {
		g := g
		prop := func(opRaw, a, b uint32) bool {
			op := fpu.Op(opRaw % fpu.NumOps)
			r, f := fpu.Eval(op, a, b)
			return g.Check(uint32(op), a, b, r, f)
		}
		if err := quick.Check(prop, cfg); err != nil {
			t.Errorf("FPU guard %s: %v", g.Name, err)
		}
	}
	for _, g := range All(UnitALU) {
		g := g
		prop := func(opRaw, a, b uint32) bool {
			op := alu.Op(opRaw % alu.NumOps)
			r, f := alu.Eval(op, a, b), alu.Flags(a, b)
			return g.Check(uint32(op), a, b, r, f)
		}
		if err := quick.Check(prop, cfg); err != nil {
			t.Errorf("ALU guard %s: %v", g.Name, err)
		}
	}
}

// TestGuardCleanEmbench executes every embench workload on a CPU whose
// backends are guarded golden models: zero guard fires over entire
// fault-free production runs, and the guarded run's architectural
// outcome is untouched.
func TestGuardCleanEmbench(t *testing.T) {
	for _, b := range embench.All {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			img, err := b.Build()
			if err != nil {
				t.Fatal(err)
			}
			aluLog := NewLog(All(UnitALU))
			fpuLog := NewLog(All(UnitFPU))
			c := cpu.New(1 << 20)
			c.ALU = &Guarded{Inner: module.GoldenFunc(alu.Golden), Log: aluLog}
			c.FPU = &Guarded{Inner: module.GoldenFunc(fpu.Golden), Log: fpuLog}
			c.Load(img)
			if halt := c.Run(200_000_000); halt != cpu.HaltExit || c.ExitCode != 0 {
				t.Fatalf("guarded %s: halt=%v exit=%d", b.Name, halt, c.ExitCode)
			}
			if aluLog.Fires != 0 || fpuLog.Fires != 0 {
				t.Fatalf("guards fired on fault-free %s: ALU %d (first %s@%d), FPU %d (first %s@%d)",
					b.Name, aluLog.Fires, aluLog.First, aluLog.FirstOp,
					fpuLog.Fires, fpuLog.First, fpuLog.FirstOp)
			}
			if aluLog.Ops == 0 {
				t.Fatalf("%s retired no ALU ops through the guard", b.Name)
			}
			if b.UsesFPU && fpuLog.Ops == 0 {
				t.Fatalf("%s is an FPU workload but retired no FPU ops through the guard", b.Name)
			}
		})
	}
}

// TestGuardFiresOnCorruption is the complement smoke check: a guard
// library that never fires on anything is also broken. Every
// full-coverage invariant must flag a single-bit result corruption on
// its covered ops.
func TestGuardFiresOnCorruption(t *testing.T) {
	aluSet := All(UnitALU)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 1000; i++ {
		a, b := rng.Uint32(), rng.Uint32()
		for _, op := range []alu.Op{alu.OpAdd, alu.OpSub, alu.OpXor} {
			r := alu.Eval(op, a, b) ^ 1<<uint(rng.Intn(32))
			f := alu.Flags(a, b)
			fired := false
			for _, g := range aluSet {
				if !g.Check(uint32(op), a, b, r, f) {
					fired = true
				}
			}
			if !fired {
				t.Fatalf("no ALU guard fired on corrupted %v a=%#x b=%#x r=%#x", op, a, b, r)
			}
		}
	}
	fpuSet := All(UnitFPU)
	for i := 0; i < 1000; i++ {
		a, b := rng.Uint32(), rng.Uint32()
		for _, op := range []fpu.Op{fpu.OpFadd, fpu.OpFsub, fpu.OpFmul} {
			r0, f := fpu.Eval(op, a, b)
			r := r0 ^ 1<<uint(rng.Intn(32))
			fired := false
			for _, g := range fpuSet {
				if !g.Check(uint32(op), a, b, r, f) {
					fired = true
				}
			}
			if !fired {
				t.Fatalf("no FPU guard fired on corrupted %v a=%#x b=%#x r=%#x (correct %#x)",
					op, a, b, r, r0)
			}
		}
	}
}

func TestSelect(t *testing.T) {
	set, err := Select(UnitFPU, []string{"mulswap", "sign"})
	if err != nil {
		t.Fatal(err)
	}
	if len(set) != 2 || set[0].Name != "sign" || set[1].Name != "mulswap" {
		t.Fatalf("Select did not canonicalize order: %v", set)
	}
	if _, err := Select(UnitALU, []string{"sign"}); err == nil ||
		!strings.Contains(err.Error(), "unknown") {
		t.Fatalf("cross-unit name accepted: %v", err)
	}
	if _, err := Select(UnitALU, []string{"res3", "res3"}); err == nil {
		t.Fatal("duplicate name accepted")
	}
	all, err := Select(UnitALU, []string{"all"})
	if err != nil || len(all) != len(All(UnitALU)) {
		t.Fatalf("all selector: %v %v", all, err)
	}
	none, err := Select(UnitFPU, nil)
	if err != nil || len(none) != 0 {
		t.Fatalf("empty selection: %v %v", none, err)
	}
}

// TestLogAccounting pins the Log bookkeeping: 1-based first-fire index,
// per-guard attribution, hung ops not counted.
func TestLogAccounting(t *testing.T) {
	l := NewLog(All(UnitALU))
	l.Observe(uint32(alu.OpAdd), 1, 2, 3, alu.Flags(1, 2), true) // clean
	l.Observe(uint32(alu.OpAdd), 1, 2, 4, alu.Flags(1, 2), true) // res3 violation
	l.Observe(uint32(alu.OpAdd), 1, 2, 4, alu.Flags(1, 2), false)
	if l.Ops != 2 {
		t.Fatalf("Ops = %d, want 2 (hung op must not count)", l.Ops)
	}
	if !l.Fired() || l.First != "res3" || l.FirstOp != 2 {
		t.Fatalf("first fire = %s@%d fires=%d", l.First, l.FirstOp, l.Fires)
	}
	if l.PerGuard[0] != 1 {
		t.Fatalf("res3 count = %d", l.PerGuard[0])
	}
}
