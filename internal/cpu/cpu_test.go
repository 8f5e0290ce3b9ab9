package cpu

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/alu"
	"repro/internal/fault"
	"repro/internal/fpu"
	"repro/internal/isa"
	"repro/internal/module"
	"repro/internal/sta"
)

const memSize = 1 << 20

func mustAsm(t testing.TB, a *isa.Asm) *isa.Image {
	t.Helper()
	img, err := a.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	return img
}

func runImage(t *testing.T, img *isa.Image) *CPU {
	t.Helper()
	c := New(memSize)
	c.Load(img)
	if got := c.Run(50_000_000); got != HaltExit {
		t.Fatalf("halt = %v (%s), pc=%#x", got, c.FaultMsg, c.PC)
	}
	return c
}

func TestArithmeticLoop(t *testing.T) {
	// Sum 1..100 = 5050.
	a := isa.NewAsm()
	a.Li(isa.T0, 0) // sum
	a.Li(isa.T1, 1) // i
	a.Li(isa.T2, 101)
	a.Label("loop")
	a.Add(isa.T0, isa.T0, isa.T1)
	a.Addi(isa.T1, isa.T1, 1)
	a.Bne(isa.T1, isa.T2, "loop")
	a.Mv(isa.A0, isa.T0)
	a.Ecall()
	c := runImage(t, mustAsm(t, a))
	if c.ExitCode != 5050 {
		t.Errorf("exit = %d, want 5050", c.ExitCode)
	}
}

func TestMemoryAndCalls(t *testing.T) {
	// Fibonacci via a recursive call using the stack.
	a := isa.NewAsm()
	a.Li(isa.A0, 10)
	a.Call("fib")
	a.Ecall()
	a.Label("fib")
	a.Li(isa.T0, 2)
	a.Blt(isa.A0, isa.T0, "base")
	a.Addi(isa.SP, isa.SP, -12)
	a.Sw(isa.RA, 0, isa.SP)
	a.Sw(isa.A0, 4, isa.SP)
	a.Addi(isa.A0, isa.A0, -1)
	a.Call("fib")
	a.Sw(isa.A0, 8, isa.SP) // fib(n-1)
	a.Lw(isa.A0, 4, isa.SP)
	a.Addi(isa.A0, isa.A0, -2)
	a.Call("fib")
	a.Lw(isa.T1, 8, isa.SP)
	a.Add(isa.A0, isa.A0, isa.T1)
	a.Lw(isa.RA, 0, isa.SP)
	a.Addi(isa.SP, isa.SP, 12)
	a.Ret()
	a.Label("base")
	a.Ret()
	c := runImage(t, mustAsm(t, a))
	if c.ExitCode != 55 {
		t.Errorf("fib(10) = %d, want 55", c.ExitCode)
	}
}

func TestLoadStoreVariants(t *testing.T) {
	a := isa.NewAsm()
	a.Word("buf", 0)
	a.La(isa.T0, "buf")
	a.Li(isa.T1, 0x80)
	a.Sb(isa.T1, 0, isa.T0)
	a.Lb(isa.T2, 0, isa.T0)  // sign-extended: 0xffffff80
	a.Lbu(isa.T3, 0, isa.T0) // 0x80
	a.Li(isa.T1, 0x8000)
	a.Sh(isa.T1, 0, isa.T0)
	a.Lh(isa.T4, 0, isa.T0)  // 0xffff8000
	a.Lhu(isa.T5, 0, isa.T0) // 0x8000
	a.Add(isa.A0, isa.T2, isa.T3)
	a.Add(isa.A0, isa.A0, isa.T4)
	a.Add(isa.A0, isa.A0, isa.T5)
	a.Ecall()
	c := runImage(t, mustAsm(t, a))
	var want uint32
	for _, v := range []uint32{0xffffff80, 0x80, 0xffff8000, 0x8000} {
		want += v
	}
	if c.ExitCode != want {
		t.Errorf("exit = %#x, want %#x", c.ExitCode, want)
	}
}

func TestMulDiv(t *testing.T) {
	a := isa.NewAsm()
	a.Li(isa.T0, 0xfffffff9) // -7
	a.Li(isa.T1, 3)
	a.Mul(isa.T2, isa.T0, isa.T1)  // -21
	a.Div(isa.T3, isa.T2, isa.T1)  // -7
	a.Rem(isa.T4, isa.T0, isa.T1)  // -1
	a.Divu(isa.T5, isa.T0, isa.T1) // huge
	a.Li(isa.T1, 0)
	a.Div(isa.T6, isa.T0, isa.T1) // div by zero: -1
	a.Add(isa.A0, isa.T3, isa.T4)
	a.Add(isa.A0, isa.A0, isa.T6)
	a.Ecall()
	c := runImage(t, mustAsm(t, a))
	var want uint32
	for _, v := range []uint32{0xfffffff9, 0xffffffff, 0xffffffff} {
		want += v
	}
	if c.ExitCode != want {
		t.Errorf("exit = %#x, want %#x", c.ExitCode, want)
	}
}

func TestMulhVariants(t *testing.T) {
	a := isa.NewAsm()
	a.Li(isa.T0, 0x80000000)
	a.Li(isa.T1, 2)
	a.Mulh(isa.T2, isa.T0, isa.T1)   // (-2^31 * 2) >> 32 = -1
	a.Mulhu(isa.T3, isa.T0, isa.T1)  // (2^31 * 2) >> 32 = 1
	a.Mulhsu(isa.T4, isa.T0, isa.T1) // signed * unsigned = -1
	a.Add(isa.A0, isa.T2, isa.T3)
	a.Add(isa.A0, isa.A0, isa.T4)
	a.Ecall()
	c := runImage(t, mustAsm(t, a))
	if c.ExitCode != 0xffffffff {
		t.Errorf("exit = %#x", c.ExitCode)
	}
}

func TestFloatProgram(t *testing.T) {
	// (1.5 + 2.25) * 2 = 7.5, converted to int with RNE -> 8.
	a := isa.NewAsm()
	a.FliBits(1, math.Float32bits(1.5), isa.T0)
	a.FliBits(2, math.Float32bits(2.25), isa.T0)
	a.FliBits(3, math.Float32bits(2.0), isa.T0)
	a.Fadd(4, 1, 2)
	a.Fmul(5, 4, 3)
	a.FcvtWS(isa.A0, 5)
	a.Ecall()
	c := runImage(t, mustAsm(t, a))
	if c.ExitCode != 8 {
		t.Errorf("exit = %d, want 8", c.ExitCode)
	}
	if c.FFlags&fpu.FlagNX == 0 {
		t.Error("7.5 -> 8 conversion must raise NX")
	}
}

func TestFflagsStickyAndCSR(t *testing.T) {
	a := isa.NewAsm()
	// 1 + 2^-24 is inexact; fflags must accumulate and be readable.
	a.FliBits(1, 0x3f800000, isa.T0)
	a.FliBits(2, 0x33800000, isa.T0)
	a.Fadd(3, 1, 2)
	a.Csrrs(isa.A0, isa.CSRFflags, isa.Zero)
	a.Ecall()
	c := runImage(t, mustAsm(t, a))
	if c.ExitCode&uint32(fpu.FlagNX) == 0 {
		t.Errorf("fflags = %#x, want NX set", c.ExitCode)
	}
}

func TestEbreakHalts(t *testing.T) {
	a := isa.NewAsm()
	a.Ebreak()
	img := mustAsm(t, a)
	c := New(memSize)
	c.Load(img)
	if got := c.Run(1000); got != HaltBreak {
		t.Fatalf("halt = %v, want break", got)
	}
}

func TestDecodeFaultHalts(t *testing.T) {
	c := New(memSize)
	img := mustAsm(t, isa.NewAsm())
	c.Load(img) // empty program: PC reads zeroed memory
	if got := c.Run(1000); got != HaltFault {
		t.Fatalf("halt = %v, want fault", got)
	}
}

func TestCycleLimit(t *testing.T) {
	a := isa.NewAsm()
	a.Label("spin")
	a.J("spin")
	c := New(memSize)
	c.Load(mustAsm(t, a))
	if got := c.Run(100); got != HaltLimit {
		t.Fatalf("halt = %v, want limit", got)
	}
}

// randomALUProgram builds a program chaining random ALU operations and
// returning a checksum.
func randomALUProgram(t testing.TB, seed int64, n int) (*isa.Image, uint32) {
	rng := rand.New(rand.NewSource(seed))
	a := isa.NewAsm()
	ops := []func(rd, rs1, rs2 isa.Reg){
		a.Add, a.Sub, a.Sll, a.Slt, a.Sltu, a.Xor, a.Srl, a.Sra, a.Or, a.And,
	}
	goldenOps := []alu.Op{alu.OpAdd, alu.OpSub, alu.OpSll, alu.OpSlt, alu.OpSltu,
		alu.OpXor, alu.OpSrl, alu.OpSra, alu.OpOr, alu.OpAnd}
	x5, x6 := rng.Uint32(), rng.Uint32()
	a.Li(isa.T0, x5)
	a.Li(isa.T1, x6)
	sum := uint32(0)
	v5, v6 := x5, x6
	for i := 0; i < n; i++ {
		k := rng.Intn(len(ops))
		ops[k](isa.T2, isa.T0, isa.T1)
		res := alu.Eval(goldenOps[k], v5, v6)
		a.Add(isa.T0, isa.T0, isa.T2)
		v5 += res
		a.Xor(isa.T1, isa.T1, isa.T0)
		v6 ^= v5
		sum = v6
	}
	a.Mv(isa.A0, isa.T1)
	a.Ecall()
	return mustAsm(t, a), sum
}

func TestNetlistALUMatchesBehavioral(t *testing.T) {
	img, want := randomALUProgram(t, 9, 60)
	m := alu.Build()
	c := New(memSize)
	c.ALU = module.NewDriverOn(m, m.Netlist)
	c.Load(img)
	if got := c.Run(10_000_000); got != HaltExit {
		t.Fatalf("halt = %v (%s)", got, c.FaultMsg)
	}
	if c.ExitCode != want {
		t.Errorf("netlist-backed exit = %#x, want %#x", c.ExitCode, want)
	}
}

func TestNetlistFPUMatchesBehavioral(t *testing.T) {
	m := fpu.Build()
	a := isa.NewAsm()
	a.FliBits(1, math.Float32bits(3.25), isa.T0)
	a.FliBits(2, math.Float32bits(-1.75), isa.T0)
	a.Fadd(3, 1, 2) // 1.5
	a.Fmul(4, 3, 3) // 2.25
	a.Fsub(5, 4, 1) // -1.0
	a.Fmax(6, 5, 3) // 1.5
	a.Feq(isa.T1, 6, 3)
	a.FmvXW(isa.T2, 4)
	a.Add(isa.A0, isa.T1, isa.T2)
	a.Ecall()
	img := mustAsm(t, a)

	ref := New(memSize)
	ref.Load(img)
	ref.Run(1_000_000)

	c := New(memSize)
	c.FPU = module.NewDriverOn(m, m.Netlist)
	c.Load(img)
	if got := c.Run(10_000_000); got != HaltExit {
		t.Fatalf("halt = %v (%s)", got, c.FaultMsg)
	}
	if c.ExitCode != ref.ExitCode || c.FFlags != ref.FFlags {
		t.Errorf("netlist FPU: exit %#x/%#x vs behavioral %#x/%#x",
			c.ExitCode, c.FFlags, ref.ExitCode, ref.FFlags)
	}
}

func TestFailingNetlistCorruptsProgram(t *testing.T) {
	// Run the random ALU program on a failing ALU whose fault endpoint
	// is a result register: the checksum must differ (or the CPU stall).
	img, want := randomALUProgram(t, 10, 60)
	m := alu.Build()
	out, _ := m.Netlist.FindOutput(module.PortResult)
	end := m.Netlist.Driver(out.Bits[0])
	in, _ := m.Netlist.FindInput(module.PortA)
	var start = end
	for _, cid := range m.Netlist.Readers()[in.Bits[0]] {
		if m.Netlist.Cells[cid].Kind.IsSequential() {
			start = cid
		}
	}
	failing := fault.FailingNetlist(m.Netlist, fault.Spec{
		Type: sta.Setup, Start: start, End: end, C: fault.C1,
	})
	c := New(memSize)
	c.ALU = module.NewDriverOn(m, failing)
	c.Load(img)
	halt := c.Run(10_000_000)
	if halt == HaltExit && c.ExitCode == want {
		t.Error("failing netlist produced the correct checksum")
	}
}

func TestRecordingBackends(t *testing.T) {
	img, _ := randomALUProgram(t, 11, 20)
	rec := &Recording{Inner: module.GoldenFunc(alu.Golden)}
	c := New(memSize)
	c.ALU = rec
	c.Load(img)
	c.Run(1_000_000)
	if len(rec.Trace) == 0 {
		t.Fatal("no ALU operations recorded")
	}
	// Every recorded op is a valid ALU op.
	for _, r := range rec.Trace {
		if !alu.Op(r.Op).Valid() {
			t.Fatalf("recorded invalid op %d", r.Op)
		}
	}
}

// TestUnitSlot: Unit addresses the two backend fields by module name,
// and a backend installed through the slot is the one execALU/execFPU
// call.
func TestUnitSlot(t *testing.T) {
	c := New(memSize)
	if c.Unit("ALU") != &c.ALU || c.Unit("FPU") != &c.FPU {
		t.Fatal("Unit does not address the CPU's ALU and FPU fields")
	}
	aluRec := &Recording{Inner: module.GoldenFunc(alu.Golden)}
	fpuRec := &Recording{Inner: module.GoldenFunc(fpu.Golden)}
	*c.Unit("ALU") = aluRec
	*c.Unit("FPU") = fpuRec

	x, y := math.Float32bits(1.5), math.Float32bits(2.25)
	a := isa.NewAsm()
	a.Li(isa.T0, 40)
	a.Li(isa.T1, 2)
	a.Add(isa.A0, isa.T0, isa.T1)
	a.FliBits(1, x, isa.T2)
	a.FliBits(2, y, isa.T2)
	a.Fadd(3, 1, 2)
	a.Li(isa.A0, 0)
	a.Ecall()
	c.Load(mustAsm(t, a))
	if halt := c.Run(1000); halt != HaltExit {
		t.Fatalf("halt = %v (%s)", halt, c.FaultMsg)
	}
	sawAdd := false
	for _, r := range aluRec.Trace {
		sawAdd = sawAdd || r == OpRecord{uint32(alu.OpAdd), 40, 2}
	}
	if !sawAdd {
		t.Errorf("the ALU slot's backend never saw add 40, 2: %v", aluRec.Trace)
	}
	if want := []OpRecord{{uint32(fpu.OpFadd), x, y}}; !reflect.DeepEqual(fpuRec.Trace, want) {
		t.Errorf("the FPU slot's backend saw %v, want %v", fpuRec.Trace, want)
	}
	if c.F[3] != math.Float32bits(3.75) {
		t.Errorf("f3 = %#x, want 3.75", c.F[3])
	}

	defer func() {
		if recover() == nil {
			t.Error("Unit of an unknown name did not panic")
		}
	}()
	c.Unit("LSU")
}

func TestInstHook(t *testing.T) {
	a := isa.NewAsm()
	a.Li(isa.A0, 0)
	a.Ecall()
	c := New(memSize)
	count := 0
	c.InstHook = func(pc uint32, inst isa.Inst) { count++ }
	c.Load(mustAsm(t, a))
	c.Run(1000)
	if count != 2 {
		t.Errorf("hook saw %d instructions, want 2", count)
	}
}

func TestCyclesAccumulate(t *testing.T) {
	a := isa.NewAsm()
	a.Li(isa.T0, 5)
	a.Label("l")
	a.Addi(isa.T0, isa.T0, -1)
	a.Bnez(isa.T0, "l")
	a.Ecall()
	c := New(memSize)
	c.Load(mustAsm(t, a))
	c.Run(10_000)
	if c.Cycles <= c.Instret {
		t.Errorf("cycles %d should exceed instret %d (taken branches)", c.Cycles, c.Instret)
	}
}

// --- RunCtx and halt-classification regressions ---------------------

func TestRunCtxCancelledMidRun(t *testing.T) {
	a := isa.NewAsm()
	a.Label("spin")
	a.J("spin")
	c := New(memSize)
	c.Load(mustAsm(t, a))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if got := c.RunCtx(ctx, 1<<40); got != HaltInterrupted {
		t.Fatalf("halt = %v, want interrupted", got)
	}
	// The architectural state stays valid: resuming with a fresh
	// context continues the run.
	if got := c.RunCtx(context.Background(), 100); got != HaltLimit {
		t.Fatalf("resumed halt = %v, want limit", got)
	}
}

func TestRunCtxBackgroundMatchesRun(t *testing.T) {
	// context.Background has a nil Done channel: RunCtx must take the
	// plain Run fast path and behave identically.
	prog := func() *isa.Image {
		a := isa.NewAsm()
		a.Li(isa.T0, 100)
		a.Label("l")
		a.Addi(isa.T0, isa.T0, -1)
		a.Bnez(isa.T0, "l")
		a.Mv(isa.A0, isa.T0)
		a.Ecall()
		return mustAsm(t, a)
	}
	c1, c2 := New(memSize), New(memSize)
	c1.Load(prog())
	c2.Load(prog())
	h1 := c1.Run(10_000)
	h2 := c2.RunCtx(context.Background(), 10_000)
	if h1 != h2 || c1.Cycles != c2.Cycles || c1.ExitCode != c2.ExitCode {
		t.Fatalf("Run (%v, %d cycles) != RunCtx (%v, %d cycles)", h1, c1.Cycles, h2, c2.Cycles)
	}
}

func TestRunCtxHonoursCycleLimit(t *testing.T) {
	a := isa.NewAsm()
	a.Label("spin")
	a.J("spin")
	c := New(memSize)
	c.Load(mustAsm(t, a))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if got := c.RunCtx(ctx, 1000); got != HaltLimit {
		t.Fatalf("halt = %v, want limit", got)
	}
}

func TestHaltFaultMisalignedStoreAtMemoryTop(t *testing.T) {
	// A misaligned word store straddling the top of memory must fault,
	// not wrap or partially commit.
	a := isa.NewAsm()
	a.Li(isa.T0, memSize-2)
	a.Sw(isa.T1, 0, isa.T0)
	c := New(memSize)
	c.Load(mustAsm(t, a))
	if got := c.Run(1000); got != HaltFault {
		t.Fatalf("halt = %v (%s), want fault", got, c.FaultMsg)
	}
}

func TestHaltFaultOutOfBoundsLoad(t *testing.T) {
	a := isa.NewAsm()
	a.Li(isa.T0, memSize)
	a.Lw(isa.T1, 0, isa.T0)
	c := New(memSize)
	c.Load(mustAsm(t, a))
	if got := c.Run(1000); got != HaltFault {
		t.Fatalf("halt = %v (%s), want fault", got, c.FaultMsg)
	}
}

// hung is a backend whose handshake never completes (ok=false), like a
// gate-level unit that never raises out_valid within the stall limit.
type hung struct{}

func (hung) Exec(op, a, b uint32) (uint32, uint32, bool) { return 0, 0, false }

func TestHaltStalledOnHungALUHandshake(t *testing.T) {
	a := isa.NewAsm()
	a.Li(isa.T0, 1)
	a.Add(isa.T1, isa.T0, isa.T0)
	a.Ecall()
	c := New(memSize)
	c.ALU = hung{}
	c.Load(mustAsm(t, a))
	if got := c.Run(1000); got != HaltStalled {
		t.Fatalf("halt = %v, want stalled", got)
	}
}

func TestHaltStalledOnHungFPUHandshake(t *testing.T) {
	a := isa.NewAsm()
	a.FliBits(1, math.Float32bits(1.5), isa.T0)
	a.Fadd(2, 1, 1)
	a.Ecall()
	c := New(memSize)
	c.FPU = hung{}
	c.Load(mustAsm(t, a))
	if got := c.Run(1000); got != HaltStalled {
		t.Fatalf("halt = %v, want stalled", got)
	}
}

// TestRecycledStateEqualsNew: whatever a released CPU held — dirty
// memory, registers, a halt, a backend — the next Recycled CPU is
// deep-equal to New's, on a reused arena as on a fresh one, and a
// request for another size never gets a recycled arena.
func TestRecycledStateEqualsNew(t *testing.T) {
	want := New(memSize)
	reused := 0
	for i := 0; i < 64; i++ {
		c := Recycled(memSize)
		if !reflect.DeepEqual(c, want) {
			t.Fatalf("iteration %d: recycled CPU differs from New", i)
		}
		arena := &c.Mem[0]
		for j := range c.Mem {
			c.Mem[j] = byte(j) | 1
		}
		c.X[5], c.F[7], c.FFlags, c.PC, c.Cycles, c.Instret = 1, 2, 3, 4, 5, 6
		c.Halt, c.ExitCode, c.FaultMsg = HaltFault, 9, "dirty"
		c.ALU = &Recording{}
		c.decodeCache[0] = isa.Inst{Op: isa.ADD}
		c.Release()
		if c.Mem != nil {
			t.Fatal("a released CPU kept its arena")
		}
		next := Recycled(memSize)
		if &next.Mem[0] == arena {
			reused++
		}
		next.Release()
	}
	if reused == 0 {
		t.Error("no arena was ever reused: the recycle path went untested")
	}
	if small := Recycled(memSize / 2); !reflect.DeepEqual(small, New(memSize/2)) {
		t.Error("a different size must get a fresh CPU")
	}
}
