package isa

import "fmt"

// RISC-V base opcodes.
const (
	opcLUI    = 0b0110111
	opcAUIPC  = 0b0010111
	opcJAL    = 0b1101111
	opcJALR   = 0b1100111
	opcBranch = 0b1100011
	opcLoad   = 0b0000011
	opcStore  = 0b0100011
	opcOpImm  = 0b0010011
	opcOp     = 0b0110011
	opcSystem = 0b1110011
	opcFLW    = 0b0000111
	opcFSW    = 0b0100111
	opcOpFP   = 0b1010011
)

type enc struct {
	opcode uint32
	funct3 uint32
	funct7 uint32
}

var rEnc = map[Op]enc{
	ADD: {opcOp, 0, 0x00}, SUB: {opcOp, 0, 0x20},
	SLL: {opcOp, 1, 0x00}, SLT: {opcOp, 2, 0x00}, SLTU: {opcOp, 3, 0x00},
	XOR: {opcOp, 4, 0x00}, SRL: {opcOp, 5, 0x00}, SRA: {opcOp, 5, 0x20},
	OR: {opcOp, 6, 0x00}, AND: {opcOp, 7, 0x00},
	MUL: {opcOp, 0, 0x01}, MULH: {opcOp, 1, 0x01}, MULHSU: {opcOp, 2, 0x01},
	MULHU: {opcOp, 3, 0x01}, DIV: {opcOp, 4, 0x01}, DIVU: {opcOp, 5, 0x01},
	REM: {opcOp, 6, 0x01}, REMU: {opcOp, 7, 0x01},
}

var iEnc = map[Op]enc{
	ADDI: {opcOpImm, 0, 0}, SLTI: {opcOpImm, 2, 0}, SLTIU: {opcOpImm, 3, 0},
	XORI: {opcOpImm, 4, 0}, ORI: {opcOpImm, 6, 0}, ANDI: {opcOpImm, 7, 0},
	JALR: {opcJALR, 0, 0},
	LB:   {opcLoad, 0, 0}, LH: {opcLoad, 1, 0}, LW: {opcLoad, 2, 0},
	LBU: {opcLoad, 4, 0}, LHU: {opcLoad, 5, 0},
	FLW: {opcFLW, 2, 0},
}

var branchEnc = map[Op]uint32{
	BEQ: 0, BNE: 1, BLT: 4, BGE: 5, BLTU: 6, BGEU: 7,
}

type fpEncoding struct {
	funct7 uint32
	rm     uint32
	rs2    int32 // -1: use Inst.Rs2
}

// fpEnc maps FP R-type ops to (funct7, rm-or-funct3, rs2-override).
var fpEnc = map[Op]fpEncoding{
	FADDS:   {0x00, 0, -1},
	FSUBS:   {0x04, 0, -1},
	FMULS:   {0x08, 0, -1},
	FDIVS:   {0x0c, 0, -1},
	FSGNJS:  {0x10, 0, -1},
	FSGNJNS: {0x10, 1, -1},
	FSGNJXS: {0x10, 2, -1},
	FMINS:   {0x14, 0, -1},
	FMAXS:   {0x14, 1, -1},
	FCVTWS:  {0x60, 0, 0},
	FCVTWUS: {0x60, 0, 1},
	FMVXW:   {0x70, 0, 0},
	FCLASSS: {0x70, 1, 0},
	FEQS:    {0x50, 2, -1},
	FLTS:    {0x50, 1, -1},
	FLES:    {0x50, 0, -1},
	FCVTSW:  {0x68, 0, 0},
	FCVTSWU: {0x68, 0, 1},
	FMVWX:   {0x78, 0, 0},
}

// funct3 is the funct3 field of the store and CSR ops, which have no
// table above.
var funct3 = [NumOps]uint32{SB: 0, SH: 1, SW: 2, FSW: 2, CSRRW: 1, CSRRS: 2, CSRRC: 3}

// Decode's tables are derived from the ones above at init: the branch,
// load, store, OP-IMM and CSR op of each funct3, the R-type op of each
// (funct7, funct3), and the OP-FP ops of each funct7 in Op order. LUI,
// the zero Op, has no funct3, so it marks an empty slot.
const noOp = LUI

var (
	branchDec, loadDec, storeDec, opImmDec, csrDec [8]Op
	rDec                                           [128][8]Op
	fpDec                                          [128][]fpOp
)

type fpOp struct {
	op Op
	fpEncoding
}

func init() {
	opImmDec[1], opImmDec[5] = SLLI, SRLI
	for op := Op(0); op < NumOps; op++ {
		switch {
		case op >= BEQ && op <= BGEU:
			branchDec[branchEnc[op]] = op
		case op >= SB && op <= SW:
			storeDec[funct3[op]] = op
		case op >= CSRRW && op <= CSRRC:
			csrDec[funct3[op]] = op
		}
		if e, ok := iEnc[op]; ok && e.opcode == opcLoad {
			loadDec[e.funct3] = op
		} else if ok && e.opcode == opcOpImm {
			opImmDec[e.funct3] = op
		}
		if e, ok := rEnc[op]; ok {
			rDec[e.funct7][e.funct3] = op
		}
		if e, ok := fpEnc[op]; ok {
			fpDec[e.funct7] = append(fpDec[e.funct7], fpOp{op, e})
		}
	}
}

// Encode renders the instruction as its RV32 binary word.
func Encode(i Inst) (uint32, error) {
	rd, rs1, rs2 := uint32(i.Rd), uint32(i.Rs1), uint32(i.Rs2)
	imm := uint32(i.Imm)
	switch {
	case i.Op == LUI:
		return imm&0xfffff000 | rd<<7 | opcLUI, nil
	case i.Op == AUIPC:
		return imm&0xfffff000 | rd<<7 | opcAUIPC, nil
	case i.Op == JAL:
		if i.Imm%2 != 0 || i.Imm < -(1<<20) || i.Imm >= 1<<20 {
			return 0, fmt.Errorf("jal offset %d out of range", i.Imm)
		}
		v := imm>>20&1<<31 | imm>>1&0x3ff<<21 | imm>>11&1<<20 | imm>>12&0xff<<12
		return v | rd<<7 | opcJAL, nil
	case i.Op >= BEQ && i.Op <= BGEU:
		if i.Imm%2 != 0 || i.Imm < -(1<<12) || i.Imm >= 1<<12 {
			return 0, fmt.Errorf("branch offset %d out of range", i.Imm)
		}
		v := imm>>12&1<<31 | imm>>5&0x3f<<25 | imm>>1&0xf<<8 | imm>>11&1<<7
		return v | rs2<<20 | rs1<<15 | branchEnc[i.Op]<<12 | opcBranch, nil
	case i.Op >= SB && i.Op <= SW || i.Op == FSW:
		if i.Imm < -2048 || i.Imm > 2047 {
			return 0, fmt.Errorf("store offset %d out of range", i.Imm)
		}
		opc := uint32(opcStore)
		if i.Op == FSW {
			opc = opcFSW
		}
		return imm>>5&0x7f<<25 | rs2<<20 | rs1<<15 | funct3[i.Op]<<12 | imm&0x1f<<7 | opc, nil
	case i.Op == SLLI || i.Op == SRLI || i.Op == SRAI:
		if i.Imm < 0 || i.Imm > 31 {
			return 0, fmt.Errorf("shift amount %d out of range", i.Imm)
		}
		f3 := uint32(1)
		f7 := uint32(0)
		if i.Op != SLLI {
			f3 = 5
		}
		if i.Op == SRAI {
			f7 = 0x20
		}
		return f7<<25 | imm&0x1f<<20 | rs1<<15 | f3<<12 | rd<<7 | opcOpImm, nil
	case i.Op == ECALL:
		return opcSystem, nil
	case i.Op == EBREAK:
		return 1<<20 | opcSystem, nil
	case i.Op >= CSRRW && i.Op <= CSRRC:
		return imm&0xfff<<20 | rs1<<15 | funct3[i.Op]<<12 | rd<<7 | opcSystem, nil
	}
	if e, ok := rEnc[i.Op]; ok {
		return e.funct7<<25 | rs2<<20 | rs1<<15 | e.funct3<<12 | rd<<7 | e.opcode, nil
	}
	if e, ok := iEnc[i.Op]; ok {
		if i.Imm < -2048 || i.Imm > 2047 {
			return 0, fmt.Errorf("%v immediate %d out of range", i.Op, i.Imm)
		}
		return imm&0xfff<<20 | rs1<<15 | e.funct3<<12 | rd<<7 | e.opcode, nil
	}
	if e, ok := fpEnc[i.Op]; ok {
		r2 := rs2
		if e.rs2 >= 0 {
			r2 = uint32(e.rs2)
		}
		return e.funct7<<25 | r2<<20 | rs1<<15 | e.rm<<12 | rd<<7 | opcOpFP, nil
	}
	return 0, fmt.Errorf("cannot encode %v", i.Op)
}

// Decode parses an RV32 binary word.
func Decode(w uint32) (Inst, error) {
	opc := w & 0x7f
	rd := Reg(w >> 7 & 0x1f)
	f3 := w >> 12 & 7
	rs1 := Reg(w >> 15 & 0x1f)
	rs2 := Reg(w >> 20 & 0x1f)
	f7 := w >> 25

	immI := int32(w) >> 20
	immS := int32(w)>>25<<5 | int32(w>>7&0x1f)
	immB := int32(w)>>31<<12 | int32(w>>7&1)<<11 | int32(w>>25&0x3f)<<5 | int32(w>>8&0xf)<<1
	immU := int32(w & 0xfffff000)
	immJ := int32(w)>>31<<20 | int32(w>>12&0xff)<<12 | int32(w>>20&1)<<11 | int32(w>>21&0x3ff)<<1

	switch opc {
	case opcLUI:
		return Inst{Op: LUI, Rd: rd, Imm: immU}, nil
	case opcAUIPC:
		return Inst{Op: AUIPC, Rd: rd, Imm: immU}, nil
	case opcJAL:
		return Inst{Op: JAL, Rd: rd, Imm: immJ}, nil
	case opcJALR:
		return Inst{Op: JALR, Rd: rd, Rs1: rs1, Imm: immI}, nil
	case opcBranch:
		if op := branchDec[f3]; op != noOp {
			return Inst{Op: op, Rs1: rs1, Rs2: rs2, Imm: immB}, nil
		}
	case opcLoad:
		if op := loadDec[f3]; op != noOp {
			return Inst{Op: op, Rd: rd, Rs1: rs1, Imm: immI}, nil
		}
	case opcFLW:
		if f3 == 2 {
			return Inst{Op: FLW, Rd: rd, Rs1: rs1, Imm: immI}, nil
		}
	case opcStore:
		if op := storeDec[f3]; op != noOp {
			return Inst{Op: op, Rs1: rs1, Rs2: rs2, Imm: immS}, nil
		}
	case opcFSW:
		if f3 == 2 {
			return Inst{Op: FSW, Rs1: rs1, Rs2: rs2, Imm: immS}, nil
		}
	case opcOpImm:
		switch op := opImmDec[f3]; {
		case op == SRLI && f7 == 0x20:
			return Inst{Op: SRAI, Rd: rd, Rs1: rs1, Imm: int32(rs2)}, nil
		case op == SLLI || op == SRLI:
			return Inst{Op: op, Rd: rd, Rs1: rs1, Imm: int32(rs2)}, nil
		default:
			return Inst{Op: op, Rd: rd, Rs1: rs1, Imm: immI}, nil
		}
	case opcOp:
		if op := rDec[f7][f3]; op != noOp {
			return Inst{Op: op, Rd: rd, Rs1: rs1, Rs2: rs2}, nil
		}
	case opcSystem:
		switch {
		case w == opcSystem:
			return Inst{Op: ECALL}, nil
		case w == 1<<20|opcSystem:
			return Inst{Op: EBREAK}, nil
		case csrDec[f3] != noOp:
			return Inst{Op: csrDec[f3], Rd: rd, Rs1: rs1, Imm: int32(w >> 20)}, nil
		}
	case opcOpFP:
		for _, e := range fpDec[f7] {
			switch f7 {
			case 0x10, 0x14, 0x50, 0x70:
				if e.rm != f3 {
					continue
				}
			}
			if e.rs2 >= 0 {
				if uint32(e.rs2) != uint32(rs2) {
					continue
				}
				// The rs2 field is an encoding discriminator here, not a
				// register operand.
				return Inst{Op: e.op, Rd: rd, Rs1: rs1}, nil
			}
			return Inst{Op: e.op, Rd: rd, Rs1: rs1, Rs2: rs2}, nil
		}
	}
	return Inst{}, fmt.Errorf("cannot decode %#08x", w)
}
