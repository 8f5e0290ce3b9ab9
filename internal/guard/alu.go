package guard

import (
	"math/bits"

	"repro/internal/alu"
)

// aluRes3 is the classic mod-3 residue code on the adder/subtractor.
// Because 2^32 ≡ 1 (mod 3), the wraparound carry/borrow contributes
// exactly one residue unit. The carry/borrow is derived from the
// operands — modelling a hardware checker that taps the adder's
// carry-out wire rather than inferring it from the (possibly corrupt)
// result:
//
//	ADD: a+b = r + c·2^32 with c = carry-out  ⇒  r ≡ a + b − c (mod 3)
//	SUB: a−b = r − w·2^32 with w = (a < b)    ⇒  r ≡ a − b + w (mod 3)
//
// Every single-bit flip of r changes r mod 3 (2^i mod 3 ∈ {1,2}), so
// residue coverage of single flips on ADD/SUB results is total.
func aluRes3(op, a, b, r, _ uint32) bool {
	switch alu.Op(op) {
	case alu.OpAdd:
		c := b2u(a+b < a) // carry-out tap
		return (a%3+b%3+3-c)%3 == r%3
	case alu.OpSub:
		w := b2u(a < b) // borrow tap
		return (a%3+3-b%3+w)%3 == r%3
	}
	return true
}

// aluParity checks parity(a^b) == parity(a)^parity(b) on XOR — again
// total coverage of single-bit result flips.
func aluParity(op, a, b, r, _ uint32) bool {
	if alu.Op(op) != alu.OpXor {
		return true
	}
	return bits.OnesCount32(r)&1 == (bits.OnesCount32(a)+bits.OnesCount32(b))&1
}

// aluBounds checks cheap bit-domain invariants on the logic and shift
// ops. These are deliberately partial (one inequality direction each):
// they model the kind of low-cost plausibility checkers a designer would
// afford, not full duplication.
func aluBounds(op, a, b, r, _ uint32) bool {
	switch alu.Op(op) {
	case alu.OpAnd:
		return r&^a == 0 && r&^b == 0 // no bit set that either operand lacks
	case alu.OpOr:
		return (a|b)&^r == 0 // no operand bit dropped
	case alu.OpSll:
		s := b & 31
		return s == 0 || r&(1<<s-1) == 0 // zero fill from the right
	case alu.OpSrl:
		s := b & 31
		return s == 0 || r>>(32-s) == 0 // zero fill from the left
	case alu.OpSra:
		s := b & 31
		if s == 0 {
			return true
		}
		fill := uint32(int32(a) >> 31)   // 0x00000000 or 0xffffffff
		return r>>(32-s) == fill>>(32-s) // sign fill from the left
	case alu.OpSlt, alu.OpSltu:
		return r <= 1
	}
	return true
}

// aluFlagRules checks the comparison flag triple (eq, lt, ltu) for
// internal consistency on every op, and that SLT/SLTU results agree with
// the corresponding flag bit. eq excludes both orders; when the operand
// signs agree the signed and unsigned orders coincide, and when they
// differ they are exact opposites.
func aluFlagRules(op, a, b, r, f uint32) bool {
	if f>>alu.FlagWidth != 0 {
		return false
	}
	eq, lt, ltu := f&1 != 0, f&2 != 0, f&4 != 0
	if eq && (lt || ltu) {
		return false
	}
	if a>>31 == b>>31 {
		if lt != ltu {
			return false
		}
	} else if lt == ltu {
		return false
	}
	switch alu.Op(op) {
	case alu.OpSlt:
		return r == b2u(lt)
	case alu.OpSltu:
		return r == b2u(ltu)
	}
	return true
}
