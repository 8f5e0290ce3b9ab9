// Package isa implements the RV32IM+F subset that the CV32E40P executes
// in this reproduction: instruction representation, binary encoding and
// decoding, and an assembler with labels and the usual pseudo-
// instructions. The CPU simulator (internal/cpu) consumes decoded
// instructions; the instruction-construction phase (internal/lift) emits
// them; the embench-style workloads are written against the assembler.
package isa

import "fmt"

// Reg is a register index (x0..x31 for integer, f0..f31 for FP).
type Reg uint8

// ABI register names.
const (
	Zero Reg = 0
	RA   Reg = 1
	SP   Reg = 2
	GP   Reg = 3
	TP   Reg = 4
	T0   Reg = 5
	T1   Reg = 6
	T2   Reg = 7
	S0   Reg = 8
	S1   Reg = 9
	A0   Reg = 10
	A1   Reg = 11
	A2   Reg = 12
	A3   Reg = 13
	A4   Reg = 14
	A5   Reg = 15
	A6   Reg = 16
	A7   Reg = 17
	S2   Reg = 18
	S3   Reg = 19
	S4   Reg = 20
	S5   Reg = 21
	S6   Reg = 22
	S7   Reg = 23
	S8   Reg = 24
	S9   Reg = 25
	S10  Reg = 26
	S11  Reg = 27
	T3   Reg = 28
	T4   Reg = 29
	T5   Reg = 30
	T6   Reg = 31
)

var regNames = [...]string{
	"zero", "ra", "sp", "gp", "tp", "t0", "t1", "t2",
	"s0", "s1", "a0", "a1", "a2", "a3", "a4", "a5",
	"a6", "a7", "s2", "s3", "s4", "s5", "s6", "s7",
	"s8", "s9", "s10", "s11", "t3", "t4", "t5", "t6",
}

func (r Reg) String() string {
	if int(r) < len(regNames) {
		return regNames[r]
	}
	return fmt.Sprintf("x%d", uint8(r))
}

// Op is an instruction mnemonic.
type Op uint8

// The implemented instruction set.
const (
	// RV32I
	LUI Op = iota
	AUIPC
	JAL
	JALR
	BEQ
	BNE
	BLT
	BGE
	BLTU
	BGEU
	LB
	LH
	LW
	LBU
	LHU
	SB
	SH
	SW
	ADDI
	SLTI
	SLTIU
	XORI
	ORI
	ANDI
	SLLI
	SRLI
	SRAI
	ADD
	SUB
	SLL
	SLT
	SLTU
	XOR
	SRL
	SRA
	OR
	AND
	ECALL
	EBREAK
	CSRRW
	CSRRS
	CSRRC
	// RV32M
	MUL
	MULH
	MULHSU
	MULHU
	DIV
	DIVU
	REM
	REMU
	// RV32F (subset; RNE rounding only)
	FLW
	FSW
	FADDS
	FSUBS
	FMULS
	FDIVS
	FSGNJS
	FSGNJNS
	FSGNJXS
	FMINS
	FMAXS
	FCVTWS
	FCVTWUS
	FMVXW
	FCLASSS
	FEQS
	FLTS
	FLES
	FCVTSW
	FCVTSWU
	FMVWX
	NumOps
)

var opNames = [...]string{
	"lui", "auipc", "jal", "jalr", "beq", "bne", "blt", "bge", "bltu", "bgeu",
	"lb", "lh", "lw", "lbu", "lhu", "sb", "sh", "sw",
	"addi", "slti", "sltiu", "xori", "ori", "andi", "slli", "srli", "srai",
	"add", "sub", "sll", "slt", "sltu", "xor", "srl", "sra", "or", "and",
	"ecall", "ebreak", "csrrw", "csrrs", "csrrc",
	"mul", "mulh", "mulhsu", "mulhu", "div", "divu", "rem", "remu",
	"flw", "fsw", "fadd.s", "fsub.s", "fmul.s", "fdiv.s",
	"fsgnj.s", "fsgnjn.s", "fsgnjx.s", "fmin.s", "fmax.s",
	"fcvt.w.s", "fcvt.wu.s", "fmv.x.w", "fclass.s",
	"feq.s", "flt.s", "fle.s", "fcvt.s.w", "fcvt.s.wu", "fmv.w.x",
}

func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op%d", uint8(o))
}

// Inst is a decoded instruction. Imm is sign-extended where the format
// calls for it. For CSR instructions Imm holds the CSR address.
type Inst struct {
	Op  Op
	Rd  Reg
	Rs1 Reg
	Rs2 Reg
	Imm int32
}

func (i Inst) String() string {
	switch {
	case i.Op == LUI || i.Op == AUIPC:
		return fmt.Sprintf("%s %s, %#x", i.Op, i.Rd, uint32(i.Imm)>>12)
	case i.Op == JAL:
		return fmt.Sprintf("%s %s, %d", i.Op, i.Rd, i.Imm)
	case i.Op >= BEQ && i.Op <= BGEU:
		return fmt.Sprintf("%s %s, %s, %d", i.Op, i.Rs1, i.Rs2, i.Imm)
	case i.Op >= LB && i.Op <= LHU || i.Op == FLW:
		return fmt.Sprintf("%s %s, %d(%s)", i.Op, i.Rd, i.Imm, i.Rs1)
	case i.Op >= SB && i.Op <= SW || i.Op == FSW:
		return fmt.Sprintf("%s %s, %d(%s)", i.Op, i.Rs2, i.Imm, i.Rs1)
	case i.Op >= ADDI && i.Op <= SRAI || i.Op == JALR:
		return fmt.Sprintf("%s %s, %s, %d", i.Op, i.Rd, i.Rs1, i.Imm)
	case i.Op == ECALL || i.Op == EBREAK:
		return i.Op.String()
	case i.Op >= CSRRW && i.Op <= CSRRC:
		return fmt.Sprintf("%s %s, %#x, %s", i.Op, i.Rd, uint32(i.Imm), i.Rs1)
	case i.Op >= FADDS:
		return fmt.Sprintf("%s f%d, f%d, f%d", i.Op, i.Rd, i.Rs1, i.Rs2)
	default:
		return fmt.Sprintf("%s %s, %s, %s", i.Op, i.Rd, i.Rs1, i.Rs2)
	}
}

// CSR addresses implemented by the CPU.
const (
	CSRFflags  = 0x001
	CSRFrm     = 0x002
	CSRFcsr    = 0x003
	CSRCycle   = 0xc00
	CSRInstret = 0xc02
)
