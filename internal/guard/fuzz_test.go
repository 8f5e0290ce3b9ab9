package guard

import (
	"testing"

	"repro/internal/alu"
	"repro/internal/fpu"
)

// FuzzGuardCleanRun fuzzes the zero-false-positive contract: for any
// operation the architecturally-correct response must satisfy every
// guard of both units. A counterexample here means a guard predicate is
// stronger than the arithmetic it claims to bound — the one failure
// mode an always-on production checker cannot have.
func FuzzGuardCleanRun(f *testing.F) {
	f.Add(uint32(0), uint32(0), uint32(0))
	f.Add(uint32(1), uint32(0x7f800001), uint32(0xff800000)) // sNaN vs -inf sub
	f.Add(uint32(2), uint32(0x00000001), uint32(0x00000001)) // subnormal product
	f.Add(uint32(2), uint32(0x7f7fffff), uint32(0x7f7fffff)) // overflow product
	f.Add(uint32(0), uint32(0x00ffffff), uint32(0x00ffffff)) // carry across frames
	f.Add(uint32(5), uint32(0x80000000), uint32(0x00000000)) // ±0 compare
	f.Add(uint32(9), uint32(0xffffffff), uint32(0x0000001f)) // full shift
	f.Fuzz(func(t *testing.T, opRaw, a, b uint32) {
		fop := fpu.Op(opRaw % fpu.NumOps)
		r, fl := fpu.Eval(fop, a, b)
		for _, g := range All(UnitFPU) {
			if !g.Check(uint32(fop), a, b, r, fl) {
				t.Fatalf("FPU guard %s fired on correct %v a=%#x b=%#x r=%#x f=%#x",
					g.Name, fop, a, b, r, fl)
			}
		}
		aop := alu.Op(opRaw % alu.NumOps)
		ar, af := alu.Eval(aop, a, b), alu.Flags(a, b)
		for _, g := range All(UnitALU) {
			if !g.Check(uint32(aop), a, b, ar, af) {
				t.Fatalf("ALU guard %s fired on correct %v a=%#x b=%#x r=%#x f=%#x",
					g.Name, aop, a, b, ar, af)
			}
		}
	})
}
