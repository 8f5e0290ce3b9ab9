package isa

import "fmt"

// DefaultBase is where assembled code is placed.
const DefaultBase uint32 = 0x1000

// DefaultDataBase is where the data segment is placed.
const DefaultDataBase uint32 = 0x40000

// Image is an assembled program ready to load into the CPU.
type Image struct {
	Base   uint32
	Words  []uint32 // encoded instructions
	Insts  []Inst   // decoded mirror (for disassembly and profiling)
	Labels map[string]uint32

	DataBase uint32
	Data     []byte
}

// Asm is an assembler with labels, forward references, a data segment,
// and the standard pseudo-instructions.
type Asm struct {
	insts  []Inst
	labels map[string]int
	fixups []fixup

	data       []byte
	dataLabels map[string]uint32

	base     uint32
	dataBase uint32
	errs     []error
}

type fixupKind int

const (
	fixBranch fixupKind = iota
	fixJal
	fixLaLui // LUI part of LA (absolute address of data label)
	fixLaLo  // ADDI part of LA
)

type fixup struct {
	index int
	label string
	kind  fixupKind
}

// NewAsm creates an assembler with the default memory layout.
func NewAsm() *Asm {
	return &Asm{
		labels:     make(map[string]int),
		dataLabels: make(map[string]uint32),
		base:       DefaultBase,
		dataBase:   DefaultDataBase,
	}
}

func (a *Asm) errf(format string, args ...any) {
	a.errs = append(a.errs, fmt.Errorf(format, args...))
}

func (a *Asm) emit(i Inst) { a.insts = append(a.insts, i) }

// Label defines a code label at the current position.
func (a *Asm) Label(name string) {
	if _, dup := a.labels[name]; dup {
		a.errf("duplicate label %q", name)
	}
	a.labels[name] = len(a.insts)
}

// PC returns the address the next emitted instruction will have.
func (a *Asm) PC() uint32 { return a.base + 4*uint32(len(a.insts)) }

// SetDataBase relocates the data segment (before any data is added);
// instrumentation blobs use it to pool their constants away from the
// host application's data.
func (a *Asm) SetDataBase(addr uint32) { a.dataBase = addr }

// DataLen reports the current data-segment size in bytes.
func (a *Asm) DataLen() int { return len(a.data) }

// --- data segment ---

// Word appends 32-bit little-endian values to the data segment, defining
// a data label at their start.
func (a *Asm) Word(label string, values ...uint32) {
	a.align(4)
	a.dataLabels[label] = a.dataBase + uint32(len(a.data))
	for _, v := range values {
		a.data = append(a.data, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	}
}

// Bytes appends raw bytes to the data segment under a label.
func (a *Asm) Bytes(label string, b []byte) {
	a.dataLabels[label] = a.dataBase + uint32(len(a.data))
	a.data = append(a.data, b...)
}

// Space reserves n zero bytes under a label.
func (a *Asm) Space(label string, n int) {
	a.align(4)
	a.dataLabels[label] = a.dataBase + uint32(len(a.data))
	a.data = append(a.data, make([]byte, n)...)
}

func (a *Asm) align(n int) {
	for len(a.data)%n != 0 {
		a.data = append(a.data, 0)
	}
}

// --- R-type ---

func (a *Asm) r(op Op, rd, rs1, rs2 Reg) { a.emit(Inst{Op: op, Rd: rd, Rs1: rs1, Rs2: rs2}) }

// R emits an arbitrary R-type instruction; for callers that select the
// opcode programmatically (e.g. generated test cases).
func (a *Asm) R(op Op, rd, rs1, rs2 Reg) { a.r(op, rd, rs1, rs2) }

// Add emits add rd, rs1, rs2; the other R-type helpers follow suit.
func (a *Asm) Add(rd, rs1, rs2 Reg)    { a.r(ADD, rd, rs1, rs2) }
func (a *Asm) Sub(rd, rs1, rs2 Reg)    { a.r(SUB, rd, rs1, rs2) }
func (a *Asm) Sll(rd, rs1, rs2 Reg)    { a.r(SLL, rd, rs1, rs2) }
func (a *Asm) Xor(rd, rs1, rs2 Reg)    { a.r(XOR, rd, rs1, rs2) }
func (a *Asm) Or(rd, rs1, rs2 Reg)     { a.r(OR, rd, rs1, rs2) }
func (a *Asm) And(rd, rs1, rs2 Reg)    { a.r(AND, rd, rs1, rs2) }
func (a *Asm) Mul(rd, rs1, rs2 Reg)    { a.r(MUL, rd, rs1, rs2) }
func (a *Asm) Mulh(rd, rs1, rs2 Reg)   { a.r(MULH, rd, rs1, rs2) }
func (a *Asm) Mulhsu(rd, rs1, rs2 Reg) { a.r(MULHSU, rd, rs1, rs2) }
func (a *Asm) Mulhu(rd, rs1, rs2 Reg)  { a.r(MULHU, rd, rs1, rs2) }
func (a *Asm) Div(rd, rs1, rs2 Reg)    { a.r(DIV, rd, rs1, rs2) }
func (a *Asm) Divu(rd, rs1, rs2 Reg)   { a.r(DIVU, rd, rs1, rs2) }
func (a *Asm) Rem(rd, rs1, rs2 Reg)    { a.r(REM, rd, rs1, rs2) }
func (a *Asm) Remu(rd, rs1, rs2 Reg)   { a.r(REMU, rd, rs1, rs2) }

// --- I-type ---

func (a *Asm) i(op Op, rd, rs1 Reg, imm int32) { a.emit(Inst{Op: op, Rd: rd, Rs1: rs1, Imm: imm}) }

// Addi emits addi rd, rs1, imm; the other I-type helpers follow suit.
func (a *Asm) Addi(rd, rs1 Reg, imm int32) { a.i(ADDI, rd, rs1, imm) }
func (a *Asm) Xori(rd, rs1 Reg, imm int32) { a.i(XORI, rd, rs1, imm) }
func (a *Asm) Andi(rd, rs1 Reg, imm int32) { a.i(ANDI, rd, rs1, imm) }
func (a *Asm) Slli(rd, rs1 Reg, sh int32)  { a.i(SLLI, rd, rs1, sh) }
func (a *Asm) Srli(rd, rs1 Reg, sh int32)  { a.i(SRLI, rd, rs1, sh) }
func (a *Asm) Jalr(rd, rs1 Reg, imm int32) { a.i(JALR, rd, rs1, imm) }

// Loads: rd, offset(rs1).
func (a *Asm) Lb(rd Reg, off int32, rs1 Reg)  { a.i(LB, rd, rs1, off) }
func (a *Asm) Lh(rd Reg, off int32, rs1 Reg)  { a.i(LH, rd, rs1, off) }
func (a *Asm) Lw(rd Reg, off int32, rs1 Reg)  { a.i(LW, rd, rs1, off) }
func (a *Asm) Lbu(rd Reg, off int32, rs1 Reg) { a.i(LBU, rd, rs1, off) }
func (a *Asm) Lhu(rd Reg, off int32, rs1 Reg) { a.i(LHU, rd, rs1, off) }
func (a *Asm) Flw(rd Reg, off int32, rs1 Reg) { a.i(FLW, rd, rs1, off) }

// Stores: rs2, offset(rs1).
func (a *Asm) Sb(rs2 Reg, off int32, rs1 Reg)  { a.emit(Inst{Op: SB, Rs1: rs1, Rs2: rs2, Imm: off}) }
func (a *Asm) Sh(rs2 Reg, off int32, rs1 Reg)  { a.emit(Inst{Op: SH, Rs1: rs1, Rs2: rs2, Imm: off}) }
func (a *Asm) Sw(rs2 Reg, off int32, rs1 Reg)  { a.emit(Inst{Op: SW, Rs1: rs1, Rs2: rs2, Imm: off}) }
func (a *Asm) Fsw(rs2 Reg, off int32, rs1 Reg) { a.emit(Inst{Op: FSW, Rs1: rs1, Rs2: rs2, Imm: off}) }

// --- U/J/B types ---

// Lui emits lui rd, imm (imm is the full 32-bit value whose low 12 bits
// are zero).
func (a *Asm) Lui(rd Reg, imm uint32) { a.emit(Inst{Op: LUI, Rd: rd, Imm: int32(imm)}) }

// Jal emits jal rd, label.
func (a *Asm) Jal(rd Reg, label string) {
	a.fixups = append(a.fixups, fixup{len(a.insts), label, fixJal})
	a.emit(Inst{Op: JAL, Rd: rd})
}

func (a *Asm) branch(op Op, rs1, rs2 Reg, label string) {
	a.fixups = append(a.fixups, fixup{len(a.insts), label, fixBranch})
	a.emit(Inst{Op: op, Rs1: rs1, Rs2: rs2})
}

// Beq emits beq rs1, rs2, label; the other branches follow suit.
func (a *Asm) Beq(rs1, rs2 Reg, label string)  { a.branch(BEQ, rs1, rs2, label) }
func (a *Asm) Bne(rs1, rs2 Reg, label string)  { a.branch(BNE, rs1, rs2, label) }
func (a *Asm) Blt(rs1, rs2 Reg, label string)  { a.branch(BLT, rs1, rs2, label) }
func (a *Asm) Bge(rs1, rs2 Reg, label string)  { a.branch(BGE, rs1, rs2, label) }
func (a *Asm) Bltu(rs1, rs2 Reg, label string) { a.branch(BLTU, rs1, rs2, label) }
func (a *Asm) Bgeu(rs1, rs2 Reg, label string) { a.branch(BGEU, rs1, rs2, label) }

// --- system ---

// Ecall emits ecall (program exit with code in a0, by this repo's ABI).
func (a *Asm) Ecall() { a.emit(Inst{Op: ECALL}) }

// Ebreak emits ebreak (test-case failure trap, by this repo's ABI).
func (a *Asm) Ebreak() { a.emit(Inst{Op: EBREAK}) }

// Csrrw/Csrrs emit CSR accesses; csr is the CSR address.
func (a *Asm) Csrrw(rd Reg, csr int32, rs1 Reg) { a.i(CSRRW, rd, rs1, csr) }
func (a *Asm) Csrrs(rd Reg, csr int32, rs1 Reg) { a.i(CSRRS, rd, rs1, csr) }

// --- floating point (register indices are f-registers) ---

// Fadd emits fadd.s rd, rs1, rs2; the other FP helpers follow suit.
func (a *Asm) Fadd(rd, rs1, rs2 Reg)   { a.r(FADDS, rd, rs1, rs2) }
func (a *Asm) Fsub(rd, rs1, rs2 Reg)   { a.r(FSUBS, rd, rs1, rs2) }
func (a *Asm) Fmul(rd, rs1, rs2 Reg)   { a.r(FMULS, rd, rs1, rs2) }
func (a *Asm) Fdiv(rd, rs1, rs2 Reg)   { a.r(FDIVS, rd, rs1, rs2) }
func (a *Asm) Fmax(rd, rs1, rs2 Reg)   { a.r(FMAXS, rd, rs1, rs2) }
func (a *Asm) Fsgnj(rd, rs1, rs2 Reg)  { a.r(FSGNJS, rd, rs1, rs2) }
func (a *Asm) Fsgnjn(rd, rs1, rs2 Reg) { a.r(FSGNJNS, rd, rs1, rs2) }
func (a *Asm) Feq(rd, rs1, rs2 Reg)    { a.r(FEQS, rd, rs1, rs2) }
func (a *Asm) Fclass(rd, rs1 Reg)      { a.r(FCLASSS, rd, rs1, 0) }
func (a *Asm) FmvXW(rd, rs1 Reg)       { a.r(FMVXW, rd, rs1, 0) }
func (a *Asm) FmvWX(rd, rs1 Reg)       { a.r(FMVWX, rd, rs1, 0) }
func (a *Asm) FcvtWS(rd, rs1 Reg)      { a.r(FCVTWS, rd, rs1, 0) }

// --- pseudo-instructions ---

// Li loads a 32-bit constant with LUI+ADDI (or a single ADDI when it
// fits).
func (a *Asm) Li(rd Reg, v uint32) {
	lo := int32(v<<20) >> 20 // sign-extended low 12 bits
	hi := v - uint32(lo)
	if hi == 0 {
		a.Addi(rd, Zero, lo)
		return
	}
	a.Lui(rd, hi)
	if lo != 0 {
		a.Addi(rd, rd, lo)
	}
}

// La loads the address of a data label.
func (a *Asm) La(rd Reg, dataLabel string) {
	a.fixups = append(a.fixups, fixup{len(a.insts), dataLabel, fixLaLui})
	a.emit(Inst{Op: LUI, Rd: rd})
	a.fixups = append(a.fixups, fixup{len(a.insts), dataLabel, fixLaLo})
	a.emit(Inst{Op: ADDI, Rd: rd, Rs1: rd})
}

// LwGlobal loads the 32-bit word at a data label using LUI + a load
// with the low offset folded into the LW immediate. Unlike La+Lw, the
// sequence performs no ALU addition at all (address generation happens
// in the load unit), so a faulty ALU cannot corrupt the reference value
// or its address.
func (a *Asm) LwGlobal(rd Reg, dataLabel string) {
	a.fixups = append(a.fixups, fixup{len(a.insts), dataLabel, fixLaLui})
	a.emit(Inst{Op: LUI, Rd: rd})
	a.fixups = append(a.fixups, fixup{len(a.insts), dataLabel, fixLaLo})
	a.emit(Inst{Op: LW, Rd: rd, Rs1: rd})
}

// Mv copies a register.
func (a *Asm) Mv(rd, rs Reg) { a.Addi(rd, rs, 0) }

// J jumps unconditionally to a label.
func (a *Asm) J(label string) { a.Jal(Zero, label) }

// Call jumps to a label, saving the return address in ra.
func (a *Asm) Call(label string) { a.Jal(RA, label) }

// Ret returns via ra.
func (a *Asm) Ret() { a.Jalr(Zero, RA, 0) }

// Beqz/Bnez branch against zero.
func (a *Asm) Beqz(rs Reg, label string) { a.Beq(rs, Zero, label) }
func (a *Asm) Bnez(rs Reg, label string) { a.Bne(rs, Zero, label) }

// FliBits loads raw float bits into an f-register through a temp integer
// register.
func (a *Asm) FliBits(fd Reg, bits uint32, tmp Reg) {
	a.Li(tmp, bits)
	a.FmvWX(fd, tmp)
}

// Assemble resolves labels and encodes the program.
func (a *Asm) Assemble() (*Image, error) {
	for _, f := range a.fixups {
		switch f.kind {
		case fixBranch, fixJal:
			target, ok := a.labels[f.label]
			if !ok {
				a.errf("undefined label %q", f.label)
				continue
			}
			a.insts[f.index].Imm = int32(4 * (target - f.index))
		case fixLaLui, fixLaLo:
			addr, ok := a.dataLabels[f.label]
			if !ok {
				a.errf("undefined data label %q", f.label)
				continue
			}
			lo := int32(addr<<20) >> 20
			if f.kind == fixLaLui {
				a.insts[f.index].Imm = int32(addr - uint32(lo))
			} else {
				a.insts[f.index].Imm = lo
			}
		}
	}
	if len(a.errs) > 0 {
		return nil, a.errs[0]
	}
	img := &Image{
		Base:     a.base,
		Insts:    append([]Inst(nil), a.insts...),
		Labels:   make(map[string]uint32, len(a.labels)),
		DataBase: a.dataBase,
		Data:     append([]byte(nil), a.data...),
	}
	for name, idx := range a.labels {
		img.Labels[name] = a.base + 4*uint32(idx)
	}
	for name, addr := range a.dataLabels {
		img.Labels[name] = addr
	}
	img.Words = make([]uint32, len(a.insts))
	for i, inst := range a.insts {
		w, err := Encode(inst)
		if err != nil {
			return nil, fmt.Errorf("inst %d (%v): %w", i, inst, err)
		}
		img.Words[i] = w
	}
	return img, nil
}
