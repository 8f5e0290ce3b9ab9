package isa

import (
	"fmt"
	"math/rand"
	"os/exec"
	"strings"
	"testing"
)

func TestKnownEncodings(t *testing.T) {
	cases := []struct {
		inst Inst
		want uint32
	}{
		{Inst{Op: ADDI, Rd: 1, Rs1: 0, Imm: 5}, 0x00500093},
		{Inst{Op: ADD, Rd: 3, Rs1: 1, Rs2: 2}, 0x002081b3},
		{Inst{Op: LUI, Rd: 5, Imm: 0x12345000}, 0x123452b7},
		{Inst{Op: ECALL}, 0x00000073},
		{Inst{Op: EBREAK}, 0x00100073},
		{Inst{Op: LW, Rd: 6, Rs1: 2, Imm: 16}, 0x01012303},
		{Inst{Op: SW, Rs1: 2, Rs2: 7, Imm: 20}, 0x00712a23},
		{Inst{Op: BEQ, Rs1: 1, Rs2: 2, Imm: 8}, 0x00208463},
		{Inst{Op: JAL, Rd: 1, Imm: 16}, 0x010000ef},
		{Inst{Op: SRAI, Rd: 4, Rs1: 4, Imm: 3}, 0x40325213},
		{Inst{Op: MUL, Rd: 10, Rs1: 11, Rs2: 12}, 0x02c58533},
		{Inst{Op: FADDS, Rd: 1, Rs1: 2, Rs2: 3}, 0x003100d3},
	}
	for _, c := range cases {
		got, err := Encode(c.inst)
		if err != nil {
			t.Fatalf("Encode(%v): %v", c.inst, err)
		}
		if got != c.want {
			t.Errorf("Encode(%v) = %#08x, want %#08x", c.inst, got, c.want)
		}
	}
}

// randInst generates a random valid instruction of each class.
func randInst(rng *rand.Rand) Inst {
	reg := func() Reg { return Reg(rng.Intn(32)) }
	imm12 := func() int32 { return int32(rng.Intn(4096) - 2048) }
	switch rng.Intn(10) {
	case 0:
		ops := []Op{ADD, SUB, SLL, SLT, SLTU, XOR, SRL, SRA, OR, AND,
			MUL, MULH, MULHSU, MULHU, DIV, DIVU, REM, REMU}
		return Inst{Op: ops[rng.Intn(len(ops))], Rd: reg(), Rs1: reg(), Rs2: reg()}
	case 1:
		ops := []Op{ADDI, SLTI, SLTIU, XORI, ORI, ANDI, JALR}
		return Inst{Op: ops[rng.Intn(len(ops))], Rd: reg(), Rs1: reg(), Imm: imm12()}
	case 2:
		ops := []Op{SLLI, SRLI, SRAI}
		return Inst{Op: ops[rng.Intn(len(ops))], Rd: reg(), Rs1: reg(), Imm: int32(rng.Intn(32))}
	case 3:
		ops := []Op{LB, LH, LW, LBU, LHU, FLW}
		return Inst{Op: ops[rng.Intn(len(ops))], Rd: reg(), Rs1: reg(), Imm: imm12()}
	case 4:
		ops := []Op{SB, SH, SW, FSW}
		return Inst{Op: ops[rng.Intn(len(ops))], Rs1: reg(), Rs2: reg(), Imm: imm12()}
	case 5:
		ops := []Op{BEQ, BNE, BLT, BGE, BLTU, BGEU}
		return Inst{Op: ops[rng.Intn(len(ops))], Rs1: reg(), Rs2: reg(),
			Imm: int32(rng.Intn(2048)-1024) * 2}
	case 6:
		return Inst{Op: []Op{LUI, AUIPC}[rng.Intn(2)], Rd: reg(),
			Imm: int32(rng.Uint32() & 0xfffff000)}
	case 7:
		return Inst{Op: JAL, Rd: reg(), Imm: int32(rng.Intn(1<<19)-(1<<18)) * 2}
	case 8:
		ops := []Op{FADDS, FSUBS, FMULS, FDIVS, FSGNJS, FSGNJNS, FSGNJXS,
			FMINS, FMAXS, FEQS, FLTS, FLES}
		return Inst{Op: ops[rng.Intn(len(ops))], Rd: reg(), Rs1: reg(), Rs2: reg()}
	default:
		ops := []Op{FCVTWS, FCVTWUS, FMVXW, FCLASSS, FCVTSW, FCVTSWU, FMVWX}
		return Inst{Op: ops[rng.Intn(len(ops))], Rd: reg(), Rs1: reg()}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 5000; i++ {
		inst := randInst(rng)
		w, err := Encode(inst)
		if err != nil {
			t.Fatalf("Encode(%v): %v", inst, err)
		}
		got, err := Decode(w)
		if err != nil {
			t.Fatalf("Decode(%#08x) [%v]: %v", w, inst, err)
		}
		// Normalize: R-type decode never sets Imm; stores don't set Rd.
		if got != inst {
			t.Fatalf("roundtrip %v -> %#08x -> %v", inst, w, got)
		}
	}
}

func TestCSRRoundTrip(t *testing.T) {
	for _, op := range []Op{CSRRW, CSRRS, CSRRC} {
		inst := Inst{Op: op, Rd: 10, Rs1: 5, Imm: CSRFflags}
		w, err := Encode(inst)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Decode(w)
		if err != nil || got != inst {
			t.Fatalf("CSR roundtrip: %v -> %v (%v)", inst, got, err)
		}
	}
}

// TestDecodeMatchesSearch: the table-driven Decode accepts and rejects
// exactly the words the search decoder does, and decodes each to the
// same instruction, on every combination of opcode, funct3, funct7 and
// rs2, with the rd, rs1 and immediate bits drawn at random. Formatting
// the two errors of an undefined word is most of its time, so each
// funct3 runs in parallel.
func TestDecodeMatchesSearch(t *testing.T) {
	for f3 := uint32(0); f3 < 8; f3++ {
		t.Run(fmt.Sprint("funct3=", f3), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(1))
			for opc := uint32(0); opc < 128; opc++ {
				for f7 := uint32(0); f7 < 128; f7++ {
					for rs2 := uint32(0); rs2 < 32; rs2++ {
						// rd (bits 7-11) and rs1 (15-19) carry the rest
						// of every immediate.
						w := f7<<25 | rs2<<20 | f3<<12 | opc | rng.Uint32()&(0x1f<<15|0x1f<<7)
						got, err := Decode(w)
						want, werr := searchDecode(w)
						if got != want || (err == nil) != (werr == nil) {
							t.Fatalf("Decode(%#08x) = %v, %v; search decoder: %v, %v", w, got, err, want, werr)
						}
					}
				}
			}
		})
	}
}

// searchDecode is Decode as it was before its tables: it finds a branch,
// an R-type and an OP-FP op by ranging over the encode maps, and a load
// and a store in a map it builds per call. It is the oracle of
// TestDecodeMatchesSearch.
func searchDecode(w uint32) (Inst, error) {
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
		for op, bf3 := range branchEnc {
			if bf3 == f3 {
				return Inst{Op: op, Rs1: rs1, Rs2: rs2, Imm: immB}, nil
			}
		}
	case opcLoad:
		ops := map[uint32]Op{0: LB, 1: LH, 2: LW, 4: LBU, 5: LHU}
		if op, ok := ops[f3]; ok {
			return Inst{Op: op, Rd: rd, Rs1: rs1, Imm: immI}, nil
		}
	case opcFLW:
		if f3 == 2 {
			return Inst{Op: FLW, Rd: rd, Rs1: rs1, Imm: immI}, nil
		}
	case opcStore:
		ops := map[uint32]Op{0: SB, 1: SH, 2: SW}
		if op, ok := ops[f3]; ok {
			return Inst{Op: op, Rs1: rs1, Rs2: rs2, Imm: immS}, nil
		}
	case opcFSW:
		if f3 == 2 {
			return Inst{Op: FSW, Rs1: rs1, Rs2: rs2, Imm: immS}, nil
		}
	case opcOpImm:
		switch f3 {
		case 0:
			return Inst{Op: ADDI, Rd: rd, Rs1: rs1, Imm: immI}, nil
		case 1:
			return Inst{Op: SLLI, Rd: rd, Rs1: rs1, Imm: int32(rs2)}, nil
		case 2:
			return Inst{Op: SLTI, Rd: rd, Rs1: rs1, Imm: immI}, nil
		case 3:
			return Inst{Op: SLTIU, Rd: rd, Rs1: rs1, Imm: immI}, nil
		case 4:
			return Inst{Op: XORI, Rd: rd, Rs1: rs1, Imm: immI}, nil
		case 5:
			if f7 == 0x20 {
				return Inst{Op: SRAI, Rd: rd, Rs1: rs1, Imm: int32(rs2)}, nil
			}
			return Inst{Op: SRLI, Rd: rd, Rs1: rs1, Imm: int32(rs2)}, nil
		case 6:
			return Inst{Op: ORI, Rd: rd, Rs1: rs1, Imm: immI}, nil
		case 7:
			return Inst{Op: ANDI, Rd: rd, Rs1: rs1, Imm: immI}, nil
		}
	case opcOp:
		for op, e := range rEnc {
			if e.funct3 == f3 && e.funct7 == f7 {
				return Inst{Op: op, Rd: rd, Rs1: rs1, Rs2: rs2}, nil
			}
		}
	case opcSystem:
		switch {
		case w == opcSystem:
			return Inst{Op: ECALL}, nil
		case w == 1<<20|opcSystem:
			return Inst{Op: EBREAK}, nil
		case f3 >= 1 && f3 <= 3:
			op := []Op{CSRRW, CSRRS, CSRRC}[f3-1]
			return Inst{Op: op, Rd: rd, Rs1: rs1, Imm: int32(w >> 20)}, nil
		}
	case opcOpFP:
		for op, e := range fpEnc {
			if e.funct7 != f7 {
				continue
			}
			switch f7 {
			case 0x10, 0x14, 0x50, 0x70:
				if e.rm != f3 {
					continue
				}
			case 0x60, 0x68, 0x70 | 0x100: // rs2-discriminated
			}
			if e.rs2 >= 0 {
				if uint32(e.rs2) != uint32(rs2) {
					continue
				}
				// The rs2 field is an encoding discriminator here, not a
				// register operand.
				return Inst{Op: op, Rd: rd, Rs1: rs1}, nil
			}
			return Inst{Op: op, Rd: rd, Rs1: rs1, Rs2: rs2}, nil
		}
	}
	return Inst{}, fmt.Errorf("cannot decode %#08x", w)
}

func TestOutOfRangeImmediatesRejected(t *testing.T) {
	bad := []Inst{
		{Op: ADDI, Rd: 1, Imm: 5000},
		{Op: SW, Rs1: 1, Rs2: 2, Imm: -3000},
		{Op: SLLI, Rd: 1, Imm: 40},
		{Op: BEQ, Imm: 3},       // odd offset
		{Op: BEQ, Imm: 1 << 13}, // too far
		{Op: JAL, Imm: 1 << 21},
	}
	for _, i := range bad {
		if _, err := Encode(i); err == nil {
			t.Errorf("Encode(%v) should fail", i)
		}
	}
}

func mustAsm(t testing.TB, a *Asm) *Image {
	t.Helper()
	img, err := a.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	return img
}

func TestAssembleLabels(t *testing.T) {
	a := NewAsm()
	a.Li(T0, 0)
	a.Label("loop")
	a.Addi(T0, T0, 1)
	a.Li(T1, 10)
	a.Bne(T0, T1, "loop")
	a.Ecall()
	img := mustAsm(t, a)
	if len(img.Words) != 5 {
		t.Fatalf("got %d words", len(img.Words))
	}
	// The branch at index 3 must target index 1: offset -8.
	if img.Insts[3].Imm != -8 {
		t.Errorf("branch offset = %d, want -8", img.Insts[3].Imm)
	}
	if img.Labels["loop"] != img.Base+4 {
		t.Errorf("label addr = %#x", img.Labels["loop"])
	}
}

func TestAssembleDataAndLa(t *testing.T) {
	a := NewAsm()
	a.Word("tbl", 0xdeadbeef, 0x12345678)
	a.La(T0, "tbl")
	a.Lw(T1, 4, T0)
	a.Ecall()
	img := mustAsm(t, a)
	addr := img.Labels["tbl"]
	if addr != DefaultDataBase {
		t.Errorf("tbl at %#x", addr)
	}
	// LUI+ADDI must reconstruct the address.
	lui := img.Insts[0]
	addi := img.Insts[1]
	if got := uint32(lui.Imm) + uint32(addi.Imm); got != addr {
		t.Errorf("la reconstructs %#x, want %#x", got, addr)
	}
	if img.Data[0] != 0xef || img.Data[3] != 0xde {
		t.Error("data not little-endian")
	}
}

func TestLiVariants(t *testing.T) {
	cases := []uint32{0, 1, 2047, 2048, 0xfffff800, 0xffffffff, 0x12345678, 0x80000000, 0x800}
	for _, v := range cases {
		a := NewAsm()
		a.Li(T0, v)
		a.Ecall()
		img := mustAsm(t, a)
		// Emulate the 1-2 instruction sequence.
		var x uint32
		for _, inst := range img.Insts {
			switch inst.Op {
			case LUI:
				x = uint32(inst.Imm)
			case ADDI:
				x += uint32(inst.Imm)
			}
		}
		if x != v {
			t.Errorf("Li(%#x) loads %#x", v, x)
		}
	}
}

func TestUndefinedLabelFails(t *testing.T) {
	a := NewAsm()
	a.J("nowhere")
	if _, err := a.Assemble(); err == nil {
		t.Fatal("undefined label must fail")
	}
}

func TestInstString(t *testing.T) {
	if s := (Inst{Op: ADD, Rd: 3, Rs1: 1, Rs2: 2}).String(); s != "add gp, ra, sp" {
		t.Errorf("String = %q", s)
	}
	if s := (Inst{Op: LW, Rd: 6, Rs1: 2, Imm: 16}).String(); s != "lw t1, 16(sp)" {
		t.Errorf("String = %q", s)
	}
}

// fpTexts is every RV32F op with the text String must give it: each
// operand in its own register file, and the rounding mode Encode fixes
// wherever the op has one.
var fpTexts = []struct {
	inst Inst
	want string
}{
	{Inst{Op: FLW, Rd: 1, Rs1: 2, Imm: 16}, "flw f1, 16(sp)"},
	{Inst{Op: FSW, Rs1: 2, Rs2: 3, Imm: -8}, "fsw f3, -8(sp)"},
	{Inst{Op: FADDS, Rd: 1, Rs1: 2, Rs2: 3}, "fadd.s f1, f2, f3, rne"},
	{Inst{Op: FSUBS, Rd: 4, Rs1: 5, Rs2: 6}, "fsub.s f4, f5, f6, rne"},
	{Inst{Op: FMULS, Rd: 7, Rs1: 8, Rs2: 9}, "fmul.s f7, f8, f9, rne"},
	{Inst{Op: FDIVS, Rd: 10, Rs1: 11, Rs2: 12}, "fdiv.s f10, f11, f12, rne"},
	{Inst{Op: FSGNJS, Rd: 13, Rs1: 14, Rs2: 15}, "fsgnj.s f13, f14, f15"},
	{Inst{Op: FSGNJNS, Rd: 16, Rs1: 17, Rs2: 18}, "fsgnjn.s f16, f17, f18"},
	{Inst{Op: FSGNJXS, Rd: 19, Rs1: 20, Rs2: 21}, "fsgnjx.s f19, f20, f21"},
	{Inst{Op: FMINS, Rd: 22, Rs1: 23, Rs2: 24}, "fmin.s f22, f23, f24"},
	{Inst{Op: FMAXS, Rd: 25, Rs1: 26, Rs2: 27}, "fmax.s f25, f26, f27"},
	{Inst{Op: FCVTWS, Rd: A0, Rs1: 1}, "fcvt.w.s a0, f1, rne"},
	{Inst{Op: FCVTWUS, Rd: A1, Rs1: 2}, "fcvt.wu.s a1, f2, rne"},
	{Inst{Op: FMVXW, Rd: T0, Rs1: 3}, "fmv.x.w t0, f3"},
	{Inst{Op: FCLASSS, Rd: T1, Rs1: 4}, "fclass.s t1, f4"},
	{Inst{Op: FEQS, Rd: A0, Rs1: 1, Rs2: 2}, "feq.s a0, f1, f2"},
	{Inst{Op: FLTS, Rd: S1, Rs1: 3, Rs2: 4}, "flt.s s1, f3, f4"},
	{Inst{Op: FLES, Rd: S2, Rs1: 5, Rs2: 6}, "fle.s s2, f5, f6"},
	{Inst{Op: FCVTSW, Rd: 7, Rs1: A2}, "fcvt.s.w f7, a2, rne"},
	{Inst{Op: FCVTSWU, Rd: 8, Rs1: A3}, "fcvt.s.wu f8, a3, rne"},
	{Inst{Op: FMVWX, Rd: 1, Rs1: S5}, "fmv.w.x f1, s5"},
}

func TestInstStringFP(t *testing.T) {
	if len(fpTexts) != int(NumOps-FLW) {
		t.Fatalf("table covers %d RV32F ops, the ISA has %d", len(fpTexts), NumOps-FLW)
	}
	for _, c := range fpTexts {
		if got := c.inst.String(); got != c.want {
			t.Errorf("%v.String() = %q, want %q", c.inst.Op, got, c.want)
		}
	}
}

// TestInstStringAssembles hands every RV32F text form to LLVM's
// assembler and requires the word it encodes to be the one Encode gives:
// the text is a faithful disassembly, not merely readable.
func TestInstStringAssembles(t *testing.T) {
	mc, err := exec.LookPath("llvm-mc")
	if err != nil {
		t.Skip("llvm-mc is not on PATH")
	}
	if out, err := exec.Command(mc, "--version").Output(); err != nil || !strings.Contains(string(out), "riscv32") {
		t.Skip("llvm-mc has no riscv32 target")
	}
	var src strings.Builder
	for _, c := range fpTexts {
		src.WriteString(c.inst.String() + "\n")
	}
	cmd := exec.Command(mc, "-triple=riscv32", "-mattr=+m,+f", "-show-encoding")
	cmd.Stdin = strings.NewReader(src.String())
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("llvm-mc: %v\n%s", err, out)
	}
	var words []uint32
	for _, line := range strings.Split(string(out), "\n") {
		_, enc, ok := strings.Cut(line, "encoding: [")
		if !ok {
			continue
		}
		var b [4]uint32
		if _, err := fmt.Sscanf(strings.TrimSuffix(enc, "]"), "0x%x,0x%x,0x%x,0x%x", &b[0], &b[1], &b[2], &b[3]); err != nil {
			t.Fatalf("llvm-mc encoding %q: %v", line, err)
		}
		words = append(words, b[0]|b[1]<<8|b[2]<<16|b[3]<<24)
	}
	if len(words) != len(fpTexts) {
		t.Fatalf("llvm-mc encoded %d of %d lines:\n%s", len(words), len(fpTexts), out)
	}
	for k, c := range fpTexts {
		want, err := Encode(c.inst)
		if err != nil {
			t.Fatal(err)
		}
		if words[k] != want {
			t.Errorf("%q assembles to %#08x, Encode gives %#08x", c.want, words[k], want)
		}
	}
}
