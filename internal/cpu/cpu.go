// Package cpu implements an in-order RV32IM+F(subset) CPU simulator in
// the style of the CV32E40P, with pluggable execution units: the ALU and
// FPU can run behaviourally (golden models — fast, used for workload
// profiling and the overhead experiments) or netlist-backed (the
// synthesized or failure-instrumented gate-level module is simulated for
// every offloaded instruction — the Verilator setup of §5.1, where only
// the unit under test runs at gate level).
//
// ABI: ecall halts with the exit code in a0; ebreak halts with
// HaltBreak (the lifted test cases use it as the failure trap). A
// backend that never raises out_valid halts the CPU with HaltStalled —
// the watchdog-observable stall of Table 6's "S" outcome.
package cpu

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/alu"
	"repro/internal/fpu"
	"repro/internal/isa"
	"repro/internal/module"
)

// HaltReason describes why execution stopped.
type HaltReason int

// Halt reasons.
const (
	Running HaltReason = iota
	HaltExit
	HaltBreak
	HaltStalled
	HaltFault
	HaltLimit
	// HaltInterrupted means RunCtx's context was cancelled mid-run; the
	// architectural state is valid but the program is unfinished.
	HaltInterrupted
)

func (h HaltReason) String() string {
	switch h {
	case Running:
		return "running"
	case HaltExit:
		return "exit"
	case HaltBreak:
		return "break"
	case HaltStalled:
		return "stalled"
	case HaltFault:
		return "fault"
	case HaltInterrupted:
		return "interrupted"
	}
	return "limit"
}

// Default cycle costs, loosely calibrated to the CV32E40P's in-order
// 4-stage pipeline. Only relative costs matter for the overhead
// experiments.
const (
	cycleBase       = 1
	cycleLoadExtra  = 1
	cycleTakenExtra = 2 // taken branch / jal / jalr pipeline flush
	cycleDivExtra   = 34
	cycleFPUExtra   = 1 // 2-stage FPU, blocking
	cycleFDivExtra  = 10
)

// CPU is one simulated hart plus its memory.
type CPU struct {
	PC      uint32
	X       [32]uint32
	F       [32]uint32 // raw float bits
	FFlags  uint32     // fcsr.fflags, sticky
	Mem     []byte
	Cycles  uint64
	Instret uint64

	Halt     HaltReason
	ExitCode uint32
	FaultMsg string

	// ALU/FPU are the execution-unit backends; nil selects the golden
	// behavioural model. Unit addresses either by name.
	ALU, FPU module.Unit

	// InstHook, when set, observes every retired instruction (used by
	// the basic-block profiler).
	InstHook func(pc uint32, inst isa.Inst)

	decodeCache map[uint32]isa.Inst
}

// New creates a CPU with the given memory size.
func New(memSize int) *CPU {
	return &CPU{Mem: make([]byte, memSize), decodeCache: make(map[uint32]isa.Inst)}
}

// arenas holds the memories of released CPUs.
var arenas sync.Pool

// Recycled is New for callers that run many short-lived CPUs (one per
// injection replay): the CPU it returns is in exactly New(memSize)'s
// state, but its memory is a released arena of that size when one is
// available. Zeroing an arena that is already mapped is several times
// cheaper than page-faulting a fresh one in on first touch. Pair it
// with Release.
func Recycled(memSize int) *CPU {
	mem, _ := arenas.Get().([]byte)
	if mem == nil || len(mem) != memSize {
		return New(memSize)
	}
	clear(mem)
	return &CPU{Mem: mem, decodeCache: make(map[uint32]isa.Inst)}
}

// Release hands c's memory to the next Recycled call and leaves c with
// none, so a use after release faults instead of corrupting another run.
func (c *CPU) Release() {
	arenas.Put(c.Mem)
	c.Mem = nil
}

// Load copies an assembled image into memory and points the PC at its
// base. Architectural state other than the PC is preserved (so test
// cases can be spliced after a workload).
func (c *CPU) Load(img *isa.Image) {
	for i, w := range img.Words {
		c.storeWord(img.Base+4*uint32(i), w)
	}
	copy(c.Mem[img.DataBase:], img.Data)
	c.PC = img.Base
	c.Halt = Running
	c.decodeCache = make(map[uint32]isa.Inst)
	// A stack at the top of memory.
	c.X[isa.SP] = uint32(len(c.Mem) - 16)
}

func (c *CPU) fault(format string, args ...any) {
	c.Halt = HaltFault
	c.FaultMsg = fmt.Sprintf(format, args...)
}

func (c *CPU) loadWord(addr uint32) (uint32, bool) {
	if int(addr)+4 > len(c.Mem) {
		c.fault("load out of range at %#x", addr)
		return 0, false
	}
	return uint32(c.Mem[addr]) | uint32(c.Mem[addr+1])<<8 |
		uint32(c.Mem[addr+2])<<16 | uint32(c.Mem[addr+3])<<24, true
}

func (c *CPU) storeWord(addr uint32, v uint32) bool {
	if int(addr)+4 > len(c.Mem) {
		c.fault("store out of range at %#x", addr)
		return false
	}
	c.Mem[addr] = byte(v)
	c.Mem[addr+1] = byte(v >> 8)
	c.Mem[addr+2] = byte(v >> 16)
	c.Mem[addr+3] = byte(v >> 24)
	return true
}

// execALU routes an integer operation through the backend (or the golden
// model).
func (c *CPU) execALU(op alu.Op, a, b uint32) (uint32, uint32) {
	if c.ALU == nil {
		return alu.Eval(op, a, b), alu.Flags(a, b)
	}
	r, f, ok := c.ALU.Exec(uint32(op), a, b)
	if !ok {
		c.Halt = HaltStalled
		c.FaultMsg = fmt.Sprintf("ALU hung on %v", op)
	}
	return r, f
}

func (c *CPU) execFPU(op fpu.Op, a, b uint32) (uint32, uint32) {
	if c.FPU == nil {
		return fpu.Eval(op, a, b)
	}
	r, f, ok := c.FPU.Exec(uint32(op), a, b)
	if !ok {
		c.Halt = HaltStalled
		c.FaultMsg = fmt.Sprintf("FPU hung on %v", op)
	}
	return r, f
}

func (c *CPU) csr(addr uint32) uint32 {
	switch addr {
	case isa.CSRFflags:
		return c.FFlags
	case isa.CSRFrm:
		return 0 // RNE
	case isa.CSRFcsr:
		return c.FFlags
	case isa.CSRCycle:
		return uint32(c.Cycles)
	case isa.CSRInstret:
		return uint32(c.Instret)
	}
	return 0
}

func (c *CPU) setCSR(addr, v uint32) {
	switch addr {
	case isa.CSRFflags, isa.CSRFcsr:
		c.FFlags = v & 0x1f
	}
}

// Step executes one instruction.
func (c *CPU) Step() {
	if c.Halt != Running {
		return
	}
	inst, ok := c.decodeCache[c.PC]
	if !ok {
		w, wok := c.loadWord(c.PC)
		if !wok {
			return
		}
		var err error
		inst, err = isa.Decode(w)
		if err != nil {
			c.fault("decode at %#x: %v", c.PC, err)
			return
		}
		c.decodeCache[c.PC] = inst
	}
	if c.InstHook != nil {
		c.InstHook(c.PC, inst)
	}
	c.execute(inst)
	c.X[0] = 0
	c.Instret++
}

// aluOps and fpuOps map an instruction to the operation its unit is
// asked for (register and immediate forms share the ALU's); entries of
// instructions execute does not route through them are never read.
var aluOps = [isa.NumOps]alu.Op{
	isa.ADDI: alu.OpAdd, isa.SLTI: alu.OpSlt, isa.SLTIU: alu.OpSltu,
	isa.XORI: alu.OpXor, isa.ORI: alu.OpOr, isa.ANDI: alu.OpAnd,
	isa.SLLI: alu.OpSll, isa.SRLI: alu.OpSrl, isa.SRAI: alu.OpSra,
	isa.ADD: alu.OpAdd, isa.SUB: alu.OpSub, isa.SLL: alu.OpSll,
	isa.SLT: alu.OpSlt, isa.SLTU: alu.OpSltu, isa.XOR: alu.OpXor,
	isa.SRL: alu.OpSrl, isa.SRA: alu.OpSra, isa.OR: alu.OpOr,
	isa.AND: alu.OpAnd,
}

var fpuOps = [isa.NumOps]fpu.Op{
	isa.FADDS: fpu.OpFadd, isa.FSUBS: fpu.OpFsub, isa.FMULS: fpu.OpFmul,
	isa.FMINS: fpu.OpFmin, isa.FMAXS: fpu.OpFmax,
	isa.FSGNJS: fpu.OpFsgnj, isa.FSGNJNS: fpu.OpFsgnjn, isa.FSGNJXS: fpu.OpFsgnjx,
	isa.FEQS: fpu.OpFeq, isa.FLTS: fpu.OpFlt, isa.FLES: fpu.OpFle,
}

func (c *CPU) execute(i isa.Inst) {
	pc := c.PC
	next := pc + 4
	cycles := uint64(cycleBase)
	rs1 := c.X[i.Rs1]
	rs2 := c.X[i.Rs2]

	switch i.Op {
	case isa.LUI:
		c.X[i.Rd] = uint32(i.Imm)
	case isa.AUIPC:
		c.X[i.Rd] = pc + uint32(i.Imm)
	case isa.JAL:
		c.X[i.Rd] = pc + 4
		next = pc + uint32(i.Imm)
		cycles += cycleTakenExtra
	case isa.JALR:
		c.X[i.Rd] = pc + 4
		next = (rs1 + uint32(i.Imm)) &^ 1
		cycles += cycleTakenExtra

	case isa.BEQ, isa.BNE, isa.BLT, isa.BGE, isa.BLTU, isa.BGEU:
		// Branch resolution uses the ALU's comparison flags (the
		// CV32E40P resolves branches in the ALU).
		_, flags := c.execALU(alu.OpSub, rs1, rs2)
		eq := flags&1 != 0
		lt := flags&2 != 0
		ltu := flags&4 != 0
		var taken bool
		switch i.Op {
		case isa.BEQ:
			taken = eq
		case isa.BNE:
			taken = !eq
		case isa.BLT:
			taken = lt
		case isa.BGE:
			taken = !lt
		case isa.BLTU:
			taken = ltu
		case isa.BGEU:
			taken = !ltu
		}
		if taken {
			next = pc + uint32(i.Imm)
			cycles += cycleTakenExtra
		}

	case isa.LB, isa.LH, isa.LW, isa.LBU, isa.LHU:
		addr := rs1 + uint32(i.Imm)
		cycles += cycleLoadExtra
		switch i.Op {
		case isa.LW:
			v, ok := c.loadWord(addr)
			if !ok {
				return
			}
			c.X[i.Rd] = v
		case isa.LB, isa.LBU:
			if int(addr) >= len(c.Mem) {
				c.fault("load out of range at %#x", addr)
				return
			}
			v := uint32(c.Mem[addr])
			if i.Op == isa.LB {
				v = uint32(int32(v<<24) >> 24)
			}
			c.X[i.Rd] = v
		case isa.LH, isa.LHU:
			if int(addr)+2 > len(c.Mem) {
				c.fault("load out of range at %#x", addr)
				return
			}
			v := uint32(c.Mem[addr]) | uint32(c.Mem[addr+1])<<8
			if i.Op == isa.LH {
				v = uint32(int32(v<<16) >> 16)
			}
			c.X[i.Rd] = v
		}

	case isa.SB, isa.SH, isa.SW:
		addr := rs1 + uint32(i.Imm)
		switch i.Op {
		case isa.SW:
			if !c.storeWord(addr, rs2) {
				return
			}
		case isa.SB:
			if int(addr) >= len(c.Mem) {
				c.fault("store out of range at %#x", addr)
				return
			}
			c.Mem[addr] = byte(rs2)
		case isa.SH:
			if int(addr)+2 > len(c.Mem) {
				c.fault("store out of range at %#x", addr)
				return
			}
			c.Mem[addr] = byte(rs2)
			c.Mem[addr+1] = byte(rs2 >> 8)
		}

	case isa.ADDI, isa.SLTI, isa.SLTIU, isa.XORI, isa.ORI, isa.ANDI,
		isa.SLLI, isa.SRLI, isa.SRAI:
		r, _ := c.execALU(aluOps[i.Op], rs1, uint32(i.Imm))
		c.X[i.Rd] = r

	case isa.ADD, isa.SUB, isa.SLL, isa.SLT, isa.SLTU, isa.XOR,
		isa.SRL, isa.SRA, isa.OR, isa.AND:
		r, _ := c.execALU(aluOps[i.Op], rs1, rs2)
		c.X[i.Rd] = r

	case isa.MUL:
		c.X[i.Rd] = rs1 * rs2
	case isa.MULH:
		c.X[i.Rd] = uint32(uint64(int64(int32(rs1))*int64(int32(rs2))) >> 32)
	case isa.MULHSU:
		c.X[i.Rd] = uint32(uint64(int64(int32(rs1))*int64(rs2)) >> 32)
	case isa.MULHU:
		c.X[i.Rd] = uint32(uint64(rs1) * uint64(rs2) >> 32)
	case isa.DIV:
		cycles += cycleDivExtra
		switch {
		case rs2 == 0:
			c.X[i.Rd] = 0xffffffff
		case rs1 == 0x80000000 && rs2 == 0xffffffff:
			c.X[i.Rd] = 0x80000000
		default:
			c.X[i.Rd] = uint32(int32(rs1) / int32(rs2))
		}
	case isa.DIVU:
		cycles += cycleDivExtra
		if rs2 == 0 {
			c.X[i.Rd] = 0xffffffff
		} else {
			c.X[i.Rd] = rs1 / rs2
		}
	case isa.REM:
		cycles += cycleDivExtra
		switch {
		case rs2 == 0:
			c.X[i.Rd] = rs1
		case rs1 == 0x80000000 && rs2 == 0xffffffff:
			c.X[i.Rd] = 0
		default:
			c.X[i.Rd] = uint32(int32(rs1) % int32(rs2))
		}
	case isa.REMU:
		cycles += cycleDivExtra
		if rs2 == 0 {
			c.X[i.Rd] = rs1
		} else {
			c.X[i.Rd] = rs1 % rs2
		}

	case isa.ECALL:
		c.Halt = HaltExit
		c.ExitCode = c.X[isa.A0]
	case isa.EBREAK:
		c.Halt = HaltBreak
	case isa.CSRRW, isa.CSRRS, isa.CSRRC:
		addr := uint32(i.Imm)
		old := c.csr(addr)
		switch i.Op {
		case isa.CSRRW:
			c.setCSR(addr, rs1)
		case isa.CSRRS:
			if i.Rs1 != isa.Zero {
				c.setCSR(addr, old|rs1)
			}
		case isa.CSRRC:
			if i.Rs1 != isa.Zero {
				c.setCSR(addr, old&^rs1)
			}
		}
		c.X[i.Rd] = old

	case isa.FLW:
		addr := rs1 + uint32(i.Imm)
		cycles += cycleLoadExtra
		v, ok := c.loadWord(addr)
		if !ok {
			return
		}
		c.F[i.Rd] = v
	case isa.FSW:
		addr := rs1 + uint32(i.Imm)
		if !c.storeWord(addr, c.F[i.Rs2]) {
			return
		}

	case isa.FADDS, isa.FSUBS, isa.FMULS, isa.FMINS, isa.FMAXS,
		isa.FSGNJS, isa.FSGNJNS, isa.FSGNJXS:
		cycles += cycleFPUExtra
		r, f := c.execFPU(fpuOps[i.Op], c.F[i.Rs1], c.F[i.Rs2])
		c.F[i.Rd] = r
		c.FFlags |= f
	case isa.FEQS, isa.FLTS, isa.FLES:
		cycles += cycleFPUExtra
		r, f := c.execFPU(fpuOps[i.Op], c.F[i.Rs1], c.F[i.Rs2])
		c.X[i.Rd] = r
		c.FFlags |= f
	case isa.FCLASSS:
		cycles += cycleFPUExtra
		r, _ := c.execFPU(fpu.OpFclass, c.F[i.Rs1], 0)
		c.X[i.Rd] = r
	case isa.FMVXW:
		c.X[i.Rd] = c.F[i.Rs1]
	case isa.FMVWX:
		c.F[i.Rd] = rs1
	case isa.FDIVS:
		// The divider is a separate iterative unit in FPNew; always
		// behavioural here (documented substitution).
		cycles += cycleFDivExtra
		r, f := fdiv(c.F[i.Rs1], c.F[i.Rs2])
		c.F[i.Rd] = r
		c.FFlags |= f
	case isa.FCVTWS, isa.FCVTWUS:
		cycles += cycleFPUExtra
		r, f := fcvtToInt(c.F[i.Rs1], i.Op == isa.FCVTWUS)
		c.X[i.Rd] = r
		c.FFlags |= f
	case isa.FCVTSW, isa.FCVTSWU:
		cycles += cycleFPUExtra
		r, f := fcvtFromInt(rs1, i.Op == isa.FCVTSWU)
		c.F[i.Rd] = r
		c.FFlags |= f

	default:
		c.fault("unimplemented op %v at %#x", i.Op, pc)
		return
	}

	if c.Halt == Running || c.Halt == HaltExit || c.Halt == HaltBreak {
		c.Cycles += cycles
	}
	if c.Halt == Running {
		c.PC = next
	}
}

// Run executes until halt or the cycle limit.
func (c *CPU) Run(maxCycles uint64) HaltReason {
	for c.Halt == Running {
		if c.Cycles >= maxCycles {
			c.Halt = HaltLimit
			break
		}
		c.Step()
	}
	return c.Halt
}

// ctxCheckSteps is how many instructions RunCtx retires between context
// polls. A select on ctx.Done() costs ~tens of ns; amortized over 4096
// steps it is invisible even for behavioural-speed emulation, while
// keeping cancellation latency well under a millisecond of wall time.
const ctxCheckSteps = 4096

// RunCtx is Run with cooperative cancellation: the context is polled
// every ctxCheckSteps retired instructions, and a cancelled context halts
// the CPU with HaltInterrupted. Long campaign runs (and the suite-replay
// experiments) go through here so a wall-clock deadline can stop an
// emulation that is deep inside a hung or runaway program. An
// interrupted CPU is resumable: calling RunCtx again (with a live
// context) continues from the interrupted state.
func (c *CPU) RunCtx(ctx context.Context, maxCycles uint64) HaltReason {
	if c.Halt == HaltInterrupted {
		c.Halt = Running
	}
	if ctx.Done() == nil {
		return c.Run(maxCycles)
	}
	for c.Halt == Running {
		select {
		case <-ctx.Done():
			c.Halt = HaltInterrupted
			return c.Halt
		default:
		}
		for i := 0; i < ctxCheckSteps && c.Halt == Running; i++ {
			if c.Cycles >= maxCycles {
				c.Halt = HaltLimit
				return c.Halt
			}
			c.Step()
		}
	}
	return c.Halt
}
