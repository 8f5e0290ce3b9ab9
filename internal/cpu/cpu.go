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
	"encoding/binary"
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

	// An instruction is decoded at its first execution and never again
	// until the next Load, even if a store overwrites it: text holds the
	// last-loaded image's words, one slot per word, and other any PC
	// outside them (made on first need).
	text     []decoded
	textBase uint32
	other    map[uint32]isa.Inst

	// The memory is written only by the stores and Load, and each write
	// marks its pages dirty, so Recycled can clear just those.
	mem   []byte
	dirty []bool // per 1<<pageShift-byte page
}

// decoded is one slot of the decode cache; ok is false until the word
// at its PC first executes.
type decoded struct {
	inst isa.Inst
	ok   bool
}

// pageShift sizes the pages a CPU tracks its memory writes in: 4 KiB.
const pageShift = 12

// New creates a CPU with the given memory size.
func New(memSize int) *CPU {
	return &CPU{
		mem:   make([]byte, memSize),
		dirty: make([]bool, (memSize+1<<pageShift-1)>>pageShift),
		text:  []decoded{},
	}
}

// touch marks the pages of mem[lo..hi] (inclusive, in range) written.
func (c *CPU) touch(lo, hi uint32) {
	for p := lo >> pageShift; p <= hi>>pageShift; p++ {
		c.dirty[p] = true
	}
}

// arena is a released CPU's memory with the record of its written pages,
// and its decode slots for the next Load to reuse.
type arena struct {
	mem   []byte
	dirty []bool
	text  []decoded
}

// arenas holds the memories of released CPUs.
var arenas sync.Pool

// Recycled is New for callers that run many short-lived CPUs (one per
// injection replay): the CPU it returns is in exactly New(memSize)'s
// state, but its memory is a released arena of that size when one is
// available, with only the pages its last run wrote cleared. A replay
// writes its image, data and stack — a few pages of a megabyte — so
// this is far cheaper than zeroing the arena, let alone page-faulting a
// fresh one in on first touch. Pair it with Release.
func Recycled(memSize int) *CPU {
	a, _ := arenas.Get().(*arena)
	if a == nil || len(a.mem) != memSize {
		return New(memSize)
	}
	for p, d := range a.dirty {
		if d {
			clear(a.mem[p<<pageShift : min((p+1)<<pageShift, memSize)])
			a.dirty[p] = false
		}
	}
	return &CPU{mem: a.mem, dirty: a.dirty, text: a.text[:0]}
}

// Release hands c's memory to the next Recycled call and leaves c with
// none, so a use after release faults instead of corrupting another run.
func (c *CPU) Release() {
	arenas.Put(&arena{c.mem, c.dirty, c.text})
	c.mem, c.dirty, c.text = nil, nil, nil
}

// Load copies an assembled image into memory and points the PC at its
// base. Architectural state other than the PC is preserved (so test
// cases can be spliced after a workload). An image whose text or data
// does not fit in memory is not written: the CPU faults instead.
func (c *CPU) Load(img *isa.Image) {
	textEnd := int(img.Base) + 4*len(img.Words)
	dataEnd := int(img.DataBase) + len(img.Data)
	if textEnd > len(c.mem) || len(img.Data) > 0 && dataEnd > len(c.mem) {
		c.fault("image text [%#x, %#x) or data [%#x, %#x) does not fit in %d bytes of memory",
			img.Base, textEnd, img.DataBase, dataEnd, len(c.mem))
		return
	}
	if len(img.Words) > 0 {
		text := c.mem[img.Base:textEnd]
		for i, w := range img.Words {
			binary.LittleEndian.PutUint32(text[4*i:], w)
		}
		c.touch(img.Base, uint32(textEnd-1))
	}
	if len(img.Data) > 0 {
		copy(c.mem[img.DataBase:], img.Data)
		c.touch(img.DataBase, uint32(dataEnd-1))
	}
	c.PC = img.Base
	c.Halt = Running
	if cap(c.text) < len(img.Words) {
		c.text = make([]decoded, len(img.Words))
	} else {
		c.text = c.text[:len(img.Words)]
		clear(c.text)
	}
	c.textBase, c.other = img.Base, nil
	// A stack at the top of memory.
	c.X[isa.SP] = uint32(len(c.mem) - 16)
}

// FNV-1a 64's offset and prime, and fnvPage: the prime to the power of
// a page's words.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
	pageWords = 1 << pageShift / 8
)

var fnvPage = func() uint64 {
	p := uint64(1)
	for range pageWords {
		p *= fnvPrime
	}
	return p
}()

// Digest folds the architectural state into one hash: FNV-1a 64 lifted
// to 64-bit words over the exit code, fflags, the X and F files, memory
// as little-endian words with its byte tail packed into one more, and
// memory's length. A whole page no write has marked is all zero, and
// folding a zero word is one multiply by the prime, so such a page costs
// one multiply by fnvPage: the digest pays for the pages a run wrote.
func (c *CPU) Digest() uint64 {
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
	words := len(c.mem) / 8
	for p, d := range c.dirty {
		lo, hi := p*pageWords, min((p+1)*pageWords, words)
		if d || hi-lo < pageWords {
			for w := lo; w < hi; w++ {
				mix(binary.LittleEndian.Uint64(c.mem[8*w:]))
			}
		} else {
			h *= fnvPage
		}
	}
	var tail uint64
	for i, b := range c.mem[8*words:] {
		tail |= uint64(b) << (8 * uint(i))
	}
	mix(tail)
	mix(uint64(len(c.mem)))
	return h
}

func (c *CPU) fault(format string, args ...any) {
	c.Halt = HaltFault
	c.FaultMsg = fmt.Sprintf(format, args...)
}

func (c *CPU) loadWord(addr uint32) (uint32, bool) {
	if int(addr)+4 > len(c.mem) {
		c.fault("load out of range at %#x", addr)
		return 0, false
	}
	return uint32(c.mem[addr]) | uint32(c.mem[addr+1])<<8 |
		uint32(c.mem[addr+2])<<16 | uint32(c.mem[addr+3])<<24, true
}

func (c *CPU) storeWord(addr uint32, v uint32) bool {
	if int(addr)+4 > len(c.mem) {
		c.fault("store out of range at %#x", addr)
		return false
	}
	c.touch(addr, addr+3)
	c.mem[addr] = byte(v)
	c.mem[addr+1] = byte(v >> 8)
	c.mem[addr+2] = byte(v >> 16)
	c.mem[addr+3] = byte(v >> 24)
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
	inst, ok := c.fetch()
	if !ok {
		return
	}
	if c.InstHook != nil {
		c.InstHook(c.PC, inst)
	}
	c.execute(inst)
	c.X[0] = 0
	c.Instret++
}

// fetch returns the instruction at the PC, decoding it if it has not
// executed since the last Load; false means the CPU faulted.
func (c *CPU) fetch() (isa.Inst, bool) {
	off := c.PC - c.textBase
	inText := off%4 == 0 && off/4 < uint32(len(c.text))
	if inText && c.text[off/4].ok {
		return c.text[off/4].inst, true
	}
	if inst, ok := c.other[c.PC]; ok {
		return inst, true
	}
	w, ok := c.loadWord(c.PC)
	if !ok {
		return isa.Inst{}, false
	}
	inst, err := isa.Decode(w)
	if err != nil {
		c.fault("decode at %#x: %v", c.PC, err)
		return isa.Inst{}, false
	}
	if inText {
		c.text[off/4] = decoded{inst, true}
	} else {
		if c.other == nil {
			c.other = make(map[uint32]isa.Inst)
		}
		c.other[c.PC] = inst
	}
	return inst, true
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
			if int(addr) >= len(c.mem) {
				c.fault("load out of range at %#x", addr)
				return
			}
			v := uint32(c.mem[addr])
			if i.Op == isa.LB {
				v = uint32(int32(v<<24) >> 24)
			}
			c.X[i.Rd] = v
		case isa.LH, isa.LHU:
			if int(addr)+2 > len(c.mem) {
				c.fault("load out of range at %#x", addr)
				return
			}
			v := uint32(c.mem[addr]) | uint32(c.mem[addr+1])<<8
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
			if int(addr) >= len(c.mem) {
				c.fault("store out of range at %#x", addr)
				return
			}
			c.touch(addr, addr)
			c.mem[addr] = byte(rs2)
		case isa.SH:
			if int(addr)+2 > len(c.mem) {
				c.fault("store out of range at %#x", addr)
				return
			}
			c.touch(addr, addr+1)
			c.mem[addr] = byte(rs2)
			c.mem[addr+1] = byte(rs2 >> 8)
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
