package cpu

import (
	"context"
	"encoding/binary"
	"math"
	"math/rand"
	"reflect"
	"sync"
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

// TestDecodeAtFirstExecution: an instruction is decoded when it first
// executes and kept until the next Load — a store over it after that
// changes nothing, a store before it does — inside the loaded image's
// text and outside it alike.
func TestDecodeAtFirstExecution(t *testing.T) {
	a := isa.NewAsm()
	a.Label("loop")
	a.Addi(isa.A0, isa.A0, 1)
	a.Addi(isa.A1, isa.A1, 1)
	a.J("loop")
	img := mustAsm(t, a)
	addi := func(rd isa.Reg, imm int32) uint32 {
		w, err := isa.Encode(isa.Inst{Op: isa.ADDI, Rd: rd, Rs1: rd, Imm: imm})
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	outside := img.Base + 4*uint32(len(img.Words)) + 64
	c := New(memSize)
	check := func(when string, want [3]uint32) {
		t.Helper()
		if got := [3]uint32{c.X[isa.A0], c.X[isa.A1], c.X[isa.A2]}; got != want || c.Halt != Running {
			t.Fatalf("%s: a0, a1, a2 = %d, halt %v; want %d, running (%s)", when, got, c.Halt, want, c.FaultMsg)
		}
	}
	c.Load(img)
	c.store(outside, 4, addi(isa.A2, 1))
	c.Step() // a0 += 1, decoded
	c.store(img.Base, 4, addi(isa.A0, 100))
	c.store(img.Base+4, 4, addi(isa.A1, 100))
	c.Step() // a1 += 100: it had not executed before the store
	c.Step() // j loop
	c.Step() // a0 += 1 again: the store came after the decode
	c.PC = outside
	c.Step() // a2 += 1, decoded
	c.store(outside, 4, addi(isa.A2, 100))
	c.PC = outside
	c.Step() // a2 += 1 again
	check("after the stores", [3]uint32{2, 100, 2})

	// Load rewrites the text and forgets every decode: the image's own
	// words run again, and the store outside the text now takes effect.
	c.X[isa.A0], c.X[isa.A1], c.X[isa.A2] = 0, 0, 0
	c.Load(img)
	c.Step()
	c.Step()
	c.PC = outside
	c.Step()
	check("after a second Load", [3]uint32{1, 1, 100})
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
	ops := []isa.Op{isa.ADD, isa.SUB, isa.SLL, isa.SLT, isa.SLTU, isa.XOR, isa.SRL, isa.SRA, isa.OR, isa.AND}
	goldenOps := []alu.Op{alu.OpAdd, alu.OpSub, alu.OpSll, alu.OpSlt, alu.OpSltu,
		alu.OpXor, alu.OpSrl, alu.OpSra, alu.OpOr, alu.OpAnd}
	x5, x6 := rng.Uint32(), rng.Uint32()
	a.Li(isa.T0, x5)
	a.Li(isa.T1, x6)
	sum := uint32(0)
	v5, v6 := x5, x6
	for i := 0; i < n; i++ {
		k := rng.Intn(len(ops))
		a.R(ops[k], isa.T2, isa.T0, isa.T1)
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

// TestRecycledStateEqualsNew: whatever a released CPU held — pages its
// program wrote, registers, a halt, a backend — the next Recycled CPU
// is deep-equal to New's but for the zeroed pages it holds for reuse, on
// a reused arena as on a fresh one, and a request for another size never
// gets a recycled arena. The memory is
// dirtied the only way it can be: by Load and by SB, SH and SW at the
// first and the last byte of a page and of memory, across a page
// boundary, and at the top of the stack.
func TestRecycledStateEqualsNew(t *testing.T) {
	type store struct {
		width int
		addr  uint32
	}
	var stores []store
	for i, w := range []int{1, 2, 4} {
		base := uint32(0x30000 + 4*i*pageSize)
		stores = append(stores,
			store{w, base},                           // first byte of a page
			store{w, base + pageSize - uint32(w)},    // ending on the last byte of a page
			store{w, base + 2*pageSize - 1},          // straddling two pages (SH, SW)
			store{w, 0},                              // first byte of memory
			store{w, uint32(memSize - w)},            // last byte of memory
			store{w, uint32(memSize - 16 - 4*(i+1))}, // below the stack pointer
		)
	}
	a := isa.NewAsm()
	a.Word("data", 0xdeadbeef, 0x01020304)
	a.Li(isa.T1, 0xffffffff)
	for _, st := range stores {
		a.Li(isa.T0, st.addr)
		switch st.width {
		case 1:
			a.Sb(isa.T1, 0, isa.T0)
		case 2:
			a.Sh(isa.T1, 0, isa.T0)
		case 4:
			a.Sw(isa.T1, 0, isa.T0)
		}
	}
	a.Sw(isa.T1, 0, isa.SP)
	a.Li(isa.A0, 0)
	a.Ecall()
	img := mustAsm(t, a)

	want := New(memSize)
	// equalsNew: c is in New's state, but for the zeroed pages it may
	// hold for its writes to reuse.
	equalsNew := func(c *CPU) bool {
		for _, pg := range c.spare {
			if *pg != (page{}) {
				return false
			}
		}
		got := *c
		got.spare = nil
		return reflect.DeepEqual(&got, want)
	}
	reused := 0
	for i := 0; i < 64; i++ {
		c := Recycled(memSize)
		if !equalsNew(c) {
			t.Fatalf("iteration %d: recycled CPU differs from New", i)
		}
		c.Load(img)
		if halt := c.Run(10_000); halt != HaltExit {
			t.Fatalf("dirtying program halted %v (%s)", halt, c.FaultMsg)
		}
		for _, st := range stores {
			if c.read(st.addr, 1) == 0 || c.read(st.addr+uint32(st.width)-1, 1) == 0 {
				t.Fatalf("store of %d bytes at %#x left memory clean: the test proves nothing", st.width, st.addr)
			}
		}
		if c.read(img.DataBase, 1) == 0 || c.read(uint32(c.size-16), 1) == 0 {
			t.Fatal("Load or the stack store left memory clean: the test proves nothing")
		}
		written := map[*page]bool{}
		for _, pg := range c.pages {
			if pg != nil {
				written[pg] = true
			}
		}
		c.X[5], c.F[7], c.FFlags, c.PC, c.Cycles, c.Instret = 1, 2, 3, 4, 5, 6
		c.Halt, c.ExitCode, c.FaultMsg = HaltFault, 9, "dirty"
		c.ALU = &Recording{}
		c.other = map[uint32]isa.Inst{0: {Op: isa.ADD}}
		c.Release()
		if c.pages != nil || c.spare != nil {
			t.Fatal("a released CPU kept its memory")
		}
		next := Recycled(memSize)
		if len(next.spare) > 0 && written[next.spare[0]] {
			reused++
		}
		if !equalsNew(next) {
			t.Fatalf("iteration %d: CPU recycled from a dirtied arena differs from New", i)
		}
		next.Release()
	}
	if reused == 0 {
		t.Error("no arena was ever reused: the recycle path went untested")
	}
	if small := Recycled(memSize - 1); !reflect.DeepEqual(small, New(memSize-1)) {
		t.Error("a different size must get a fresh CPU")
	}
}

// flat is c's memory as one slice: each page placed at its offset, a nil
// page as zeros.
func flat(c *CPU) []byte {
	mem := make([]byte, c.size)
	for p, pg := range c.pages {
		if pg != nil {
			copy(mem[p<<pageShift:], pg[:])
		}
	}
	return mem
}

// fullDigest is Digest by a walk over every word of memory, placed or
// not: the oracle of TestDigestMatchesFullWalk.
func fullDigest(c *CPU) uint64 {
	h := uint64(fnvOffset)
	mix := func(v uint64) {
		h ^= v
		h *= fnvPrime
	}
	mix(uint64(c.ExitCode))
	mix(uint64(c.FFlags))
	for _, v := range c.X {
		mix(uint64(v))
	}
	for _, v := range c.F {
		mix(uint64(v))
	}
	mem := flat(c)
	for len(mem) >= 8 {
		mix(binary.LittleEndian.Uint64(mem))
		mem = mem[8:]
	}
	var tail uint64
	for i, b := range mem {
		tail |= uint64(b) << (8 * uint(i))
	}
	mix(tail)
	mix(uint64(c.size))
	return h
}

// TestDigestMatchesFullWalk: the digest that folds each nil page of the
// page table in one multiply equals a walk over all of memory — on a New
// CPU, on a Recycled one after SB, SH, SW and Load wrote it, and with a
// page written back to all zeros (placed, zero content) — at memory
// sizes with whole pages, a partial last page and a byte tail. Four
// goroutines share the released pages, as the campaign's workers do.
func TestDigestMatchesFullWalk(t *testing.T) {
	a := isa.NewAsm()
	a.Word("data", 0xdeadbeef, 0x01020304)
	a.Ecall()
	img := mustAsm(t, a)
	store := func(c *CPU, op isa.Op, addr, v uint32) {
		c.X[isa.T0], c.X[isa.T1] = addr, v
		c.execute(isa.Inst{Op: op, Rs1: isa.T0, Rs2: isa.T1})
		if c.Halt != Running {
			t.Errorf("%v at %#x: %s", op, addr, c.FaultMsg)
		}
	}
	check := func(c *CPU, size int, when string) {
		if got, want := c.Digest(), fullDigest(c); got != want {
			t.Errorf("memory %d, %s: digest %#x, full walk %#x", size, when, got, want)
		}
	}
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, size := range []int{1 << 20, 1 << 19, 4096 + 12, 5} {
				c := New(size)
				check(c, size, "New")
				c.Release()
				c = Recycled(size)
				if size > 1<<pageShift {
					im := *img
					im.DataBase = uint32(min(int(img.DataBase), size-len(img.Data)))
					c.Load(&im)
					store(c, isa.SW, 1<<pageShift, 0x11223344)     // first word of page 1
					store(c, isa.SH, uint32(size-6), 0xa5a5)       // in the last whole word
					store(c, isa.SB, uint32(size/2)|3, 0x7f)       // mid-memory
					store(c, isa.SW, uint32(size)/2-2, 0xffffffff) // straddling two pages at 1<<19 and 1<<20
				}
				store(c, isa.SB, uint32(size-1), 0x5a) // the last byte: a byte tail unless size%8 == 0
				c.X[isa.A0], c.F[3], c.FFlags, c.ExitCode = 7, 8, 9, 10
				check(c, size, "after stores")
				store(c, isa.SB, uint32(size-1), 0)
				if size > 1<<pageShift {
					store(c, isa.SW, 1<<pageShift, 0)
				}
				check(c, size, "a page written back to zero")
				c.Release()
			}
		}()
	}
	wg.Wait()
}

// TestWordAcrossPageBoundary: a word stored across a page boundary loads
// back whole by LW and as its two halves by LHU; a load that reaches
// into a page no store placed reads zeros there and places none; and the
// digest still equals a full walk.
func TestWordAcrossPageBoundary(t *testing.T) {
	c := New(memSize)
	exec := func(op isa.Op, addr, v uint32) uint32 {
		t.Helper()
		c.X[isa.T0], c.X[isa.T1] = addr, v
		c.execute(isa.Inst{Op: op, Rd: isa.T2, Rs1: isa.T0, Rs2: isa.T1})
		if c.Halt != Running {
			t.Fatalf("%v at %#x: %s", op, addr, c.FaultMsg)
		}
		return c.X[isa.T2]
	}
	const edge = 3 << pageShift
	exec(isa.SW, edge-2, 0x44332211)
	if c.pages[2] == nil || c.pages[3] == nil {
		t.Fatal("a word stored across a page boundary did not place both pages")
	}
	if got := exec(isa.LW, edge-2, 0); got != 0x44332211 {
		t.Errorf("LW across the boundary = %#x, want 0x44332211", got)
	}
	if lo, hi := exec(isa.LHU, edge-2, 0), exec(isa.LHU, edge, 0); lo != 0x2211 || hi != 0x4433 {
		t.Errorf("LHU either side of the boundary = %#x, %#x; want 0x2211, 0x4433", lo, hi)
	}
	exec(isa.SB, 5<<pageShift-1, 0xa5) // page 4's last byte; page 5 stays unwritten
	if got := exec(isa.LW, 5<<pageShift-1, 0); got != 0xa5 {
		t.Errorf("LW into an unwritten page = %#x, want 0xa5", got)
	}
	if got := exec(isa.LH, 5<<pageShift-1, 0); got != 0xa5 {
		t.Errorf("LH into an unwritten page = %#x, want 0xa5", got)
	}
	if c.pages[5] != nil {
		t.Error("a load placed a page")
	}
	if got, want := c.Digest(), fullDigest(c); got != want {
		t.Errorf("digest %#x, full walk %#x", got, want)
	}
}

// TestLoadFaultsOnImageThatDoesNotFit: an image whose text or data runs
// past the end of memory halts the CPU with a fault before it writes a
// byte or runs an instruction; one that ends exactly at the end, or has
// no data to place, loads and runs.
func TestLoadFaultsOnImageThatDoesNotFit(t *testing.T) {
	const size = 4096
	ecall, err := isa.Encode(isa.Inst{Op: isa.ECALL})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		img   isa.Image
		fault bool
	}{
		{"text past the end", isa.Image{Base: size - 4, Words: []uint32{ecall, ecall}}, true},
		{"text ending at the end", isa.Image{Base: size - 4, Words: []uint32{ecall}}, false},
		{"data running past the end", isa.Image{Words: []uint32{ecall}, DataBase: size - 2, Data: []byte{1, 2, 3}}, true},
		{"data ending at the end", isa.Image{Words: []uint32{ecall}, DataBase: size - 3, Data: []byte{1, 2, 3}}, false},
		{"data starting at the end", isa.Image{Words: []uint32{ecall}, DataBase: size, Data: []byte{1}}, true},
		{"data base past the end", isa.Image{Words: []uint32{ecall}, DataBase: 0x40000, Data: []byte{1}}, true},
		{"no data, data base past the end", isa.Image{Words: []uint32{ecall}, DataBase: 0x40000}, false},
	} {
		c := New(size)
		c.Load(&tc.img)
		halt := c.Run(1000)
		written := fullDigest(c) != fullDigest(New(size))
		switch {
		case tc.fault && (halt != HaltFault || c.Instret != 0 || written):
			t.Errorf("%s: halt %v after %d instructions (%s), memory written %v; want a fault before any",
				tc.name, halt, c.Instret, c.FaultMsg, written)
		case !tc.fault && halt != HaltExit:
			t.Errorf("%s: halt %v (%s), want exit", tc.name, halt, c.FaultMsg)
		case !tc.fault && len(tc.img.Data) > 0 && flat(c)[size-1] != tc.img.Data[len(tc.img.Data)-1]:
			t.Errorf("%s: the data's last byte was not loaded", tc.name)
		}
	}
}
