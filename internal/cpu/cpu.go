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

	// Memory is a table of 1<<pageShift-byte pages, written only by the
	// stores and Load. A nil page has not been written since New or
	// Recycled and reads as zero, so a run holds just the pages it wrote;
	// spare holds zeroed pages a released CPU left for the next to use.
	pages []*page
	spare []*page
	size  int
}

// page is one page of memory.
type page [1 << pageShift]byte

// decoded is one slot of the decode cache; ok is false until the word
// at its PC first executes.
type decoded struct {
	inst isa.Inst
	ok   bool
}

// pageShift sizes the pages of memory: 4 KiB.
const (
	pageShift = 12
	pageSize  = 1 << pageShift
	pageMask  = pageSize - 1
)

// New creates a CPU with the given memory size.
func New(memSize int) *CPU {
	return &CPU{
		pages: make([]*page, (memSize+pageSize-1)>>pageShift),
		size:  memSize,
		text:  []decoded{},
	}
}

// page returns page p of memory for writing, placing a zero page there
// if it has none.
func (c *CPU) page(p uint32) *page {
	pg := c.pages[p]
	if pg == nil {
		if n := len(c.spare); n > 0 {
			pg, c.spare = c.spare[n-1], c.spare[:n-1]
		} else {
			pg = new(page)
		}
		c.pages[p] = pg
	}
	return pg
}

// arena is a released CPU's page table, all nil, with the zeroed pages
// it had written, and its decode slots for the next Load to reuse.
type arena struct {
	pages, spare []*page
	size         int
	text         []decoded
}

// arenas holds the memories of released CPUs.
var arenas sync.Pool

// Recycled is New for callers that run many short-lived CPUs (one per
// injection replay): the CPU it returns is in exactly New(memSize)'s
// state, but the pages it writes come from a released CPU of that size
// when one is available. A replay writes its image, data and stack — a
// few pages of a megabyte — so it reuses a few zeroed pages instead of
// allocating them. Pair it with Release.
func Recycled(memSize int) *CPU {
	a, _ := arenas.Get().(*arena)
	if a == nil || a.size != memSize {
		return New(memSize)
	}
	return &CPU{pages: a.pages, spare: a.spare, size: memSize, text: a.text[:0]}
}

// Release zeroes the pages c wrote and hands them, with its page table,
// to the next Recycled call. It leaves c with no memory, so a use after
// release faults instead of corrupting another run.
func (c *CPU) Release() {
	for p, pg := range c.pages {
		if pg != nil {
			clear(pg[:])
			c.spare = append(c.spare, pg)
			c.pages[p] = nil
		}
	}
	arenas.Put(&arena{c.pages, c.spare, c.size, c.text})
	c.pages, c.spare, c.text, c.size = nil, nil, nil, 0
}

// Load copies an assembled image into memory and points the PC at its
// base. Architectural state other than the PC is preserved (so test
// cases can be spliced after a workload). An image whose text or data
// does not fit in memory is not written: the CPU faults instead.
func (c *CPU) Load(img *isa.Image) {
	textEnd := int(img.Base) + 4*len(img.Words)
	dataEnd := int(img.DataBase) + len(img.Data)
	if textEnd > c.size || len(img.Data) > 0 && dataEnd > c.size {
		c.fault("image text [%#x, %#x) or data [%#x, %#x) does not fit in %d bytes of memory",
			img.Base, textEnd, img.DataBase, dataEnd, c.size)
		return
	}
	// The text goes in a page at a time; only a word that straddles two
	// pages, at a base that is not word-aligned, is stored on its own.
	for words, addr := img.Words, img.Base; len(words) > 0; {
		off := int(addr & pageMask)
		n := min(len(words), (pageSize-off)/4)
		if n == 0 {
			c.write(addr, 4, words[0])
			n = 1
		} else {
			pg := c.page(addr >> pageShift)
			for i, w := range words[:n] {
				binary.LittleEndian.PutUint32(pg[off+4*i:], w)
			}
		}
		words, addr = words[n:], addr+uint32(4*n)
	}
	for data, addr := img.Data, img.DataBase; len(data) > 0; {
		n := copy(c.page(addr >> pageShift)[addr&pageMask:], data)
		data, addr = data[n:], addr+uint32(n)
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
	c.X[isa.SP] = uint32(c.size - 16)
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
// memory's length. A whole page no write has placed is all zero, and
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
	words := c.size / 8
	for p, pg := range c.pages {
		n := min(pageWords, words-p*pageWords)
		switch {
		case pg != nil:
			for w := range n {
				mix(binary.LittleEndian.Uint64(pg[8*w:]))
			}
		case n == pageWords:
			h *= fnvPage
		default:
			for range n {
				mix(0)
			}
		}
	}
	var tail uint64
	for i := range c.size % 8 {
		tail |= uint64(c.read(uint32(8*words+i), 1)) << (8 * uint(i))
	}
	mix(tail)
	mix(uint64(c.size))
	return h
}

func (c *CPU) fault(format string, args ...any) {
	c.Halt = HaltFault
	c.FaultMsg = fmt.Sprintf(format, args...)
}

// read returns the n-byte (1, 2 or 4) little-endian value at addr,
// which lies in memory.
func (c *CPU) read(addr uint32, n int) uint32 {
	off := int(addr & pageMask)
	if off+n > pageSize {
		var v uint32
		for i := range n {
			v |= c.read(addr+uint32(i), 1) << (8 * i)
		}
		return v
	}
	pg := c.pages[addr>>pageShift]
	switch {
	case pg == nil:
		return 0
	case n == 1:
		return uint32(pg[off])
	case n == 2:
		return uint32(binary.LittleEndian.Uint16(pg[off:]))
	}
	return binary.LittleEndian.Uint32(pg[off:])
}

// write stores the low n bytes (1, 2 or 4) of v at addr, which lies in
// memory, little-endian.
func (c *CPU) write(addr uint32, n int, v uint32) {
	off := int(addr & pageMask)
	if off+n > pageSize {
		for i := range n {
			c.write(addr+uint32(i), 1, v>>(8*i))
		}
		return
	}
	pg := c.page(addr >> pageShift)
	switch n {
	case 1:
		pg[off] = byte(v)
	case 2:
		binary.LittleEndian.PutUint16(pg[off:], uint16(v))
	default:
		binary.LittleEndian.PutUint32(pg[off:], v)
	}
}

// load is read with the bounds check of a load instruction.
func (c *CPU) load(addr uint32, n int) (uint32, bool) {
	if int(addr)+n > c.size {
		c.fault("load out of range at %#x", addr)
		return 0, false
	}
	return c.read(addr, n), true
}

// store is write with the bounds check of a store instruction.
func (c *CPU) store(addr uint32, n int, v uint32) bool {
	if int(addr)+n > c.size {
		c.fault("store out of range at %#x", addr)
		return false
	}
	c.write(addr, n, v)
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
	w, ok := c.load(c.PC, 4)
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

// width is the bytes a load or store instruction moves.
var width = [isa.NumOps]int{
	isa.LB: 1, isa.LBU: 1, isa.SB: 1, isa.LH: 2, isa.LHU: 2, isa.SH: 2, isa.LW: 4, isa.SW: 4,
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
		cycles += cycleLoadExtra
		v, ok := c.load(rs1+uint32(i.Imm), width[i.Op])
		if !ok {
			return
		}
		switch i.Op {
		case isa.LB:
			v = uint32(int32(v<<24) >> 24)
		case isa.LH:
			v = uint32(int32(v<<16) >> 16)
		}
		c.X[i.Rd] = v

	case isa.SB, isa.SH, isa.SW:
		if !c.store(rs1+uint32(i.Imm), width[i.Op], rs2) {
			return
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
		cycles += cycleLoadExtra
		v, ok := c.load(rs1+uint32(i.Imm), 4)
		if !ok {
			return
		}
		c.F[i.Rd] = v
	case isa.FSW:
		if !c.store(rs1+uint32(i.Imm), 4, c.F[i.Rs2]) {
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
