package fpu

import (
	"repro/internal/module"
	"repro/internal/netlist"
	"repro/internal/synth"
)

// PeriodPs is the FPU's target clock period: 250 MHz, matching the
// paper's synthesis target for the CV32E40P FPU.
const PeriodPs = 4000.0

// fpDec is the gate-level operand decode shared by every datapath.
type fpDec struct {
	raw    synth.Bus // the 32 input bits
	sign   netlist.NetID
	exp    synth.Bus // 8
	man    synth.Bus // 23
	expNZ  netlist.NetID
	expOne netlist.NetID // exponent all ones
	manNZ  netlist.NetID
	isZero netlist.NetID
	isSub  netlist.NetID
	isInf  netlist.NetID
	isNaN  netlist.NetID
	isSNaN netlist.NetID
	isNorm netlist.NetID
	eAdj   synth.Bus // 8: max(exp, 1) — the decode frame of the softfloat model
	sig24  synth.Bus // mantissa with hidden bit for normals
}

func decodeFP(c *synth.C, f synth.Bus) fpDec {
	d := fpDec{raw: f, sign: f[31], exp: f[23:31], man: f[0:23]}
	d.expNZ = c.OrReduce(d.exp)
	d.expOne = c.AndReduce(d.exp)
	d.manNZ = c.OrReduce(d.man)
	d.isNaN = c.And(d.expOne, d.manNZ)
	d.isSNaN = c.And(d.isNaN, c.Not(d.man[22]))
	d.isInf = c.And(d.expOne, c.Not(d.manNZ))
	d.isZero = c.And(c.Not(d.expNZ), c.Not(d.manNZ))
	d.isSub = c.And(c.Not(d.expNZ), d.manNZ)
	d.isNorm = c.And(d.expNZ, c.Not(d.expOne))
	d.eAdj = c.MuxBus(d.expNZ, c.Const(8, 1), d.exp)
	d.sig24 = append(append(synth.Bus{}, d.man...), d.expNZ)
	return d
}

// roundPackGate implements the softfloat roundPack function in gates:
// normalize, gradual underflow, RNE rounding, overflow, and packing.
// exp is an 11-bit two's-complement bus; sig28 carries the significand
// with 3 GRS bits and an optional carry at bit 27. Returned flags are
// [NX, UF, OF, DZ, NV] with DZ/NV always 0.
func roundPackGate(c *synth.C, sign netlist.NetID, exp, sig28 synth.Bus) (synth.Bus, synth.Bus) {
	// Carry normalization: one jamming right shift if bit 27 is set.
	c27 := sig28[27]
	shifted := make(synth.Bus, 27)
	for i := 1; i < 27; i++ {
		shifted[i] = sig28[i+1]
	}
	shifted[0] = c.Or(sig28[1], sig28[0])
	sigA := c.MuxBus(c27, sig28[0:27], shifted)
	expA, _ := c.Adder(exp, c.Const(11, 0), c27)

	// Left-normalization amount, bounded by the exponent.
	lz, _ := c.LZC(sigA) // 5 bits, 0..27
	lz11 := c.ZeroExtend(lz, 11)
	expAm1, _ := c.Sub(expA, c.Const(11, 1))
	expNeg := expAm1[10] // expA < 1
	limited := c.LtS(expAm1, lz11)
	inner := c.MuxBus(expNeg, synth.Bus(expAm1[0:5]), c.Const(5, 0))
	shiftL := c.MuxBus(limited, lz, inner)
	sigL := c.ShiftLeft(sigA, shiftL)
	expOut, _ := c.Sub(expA, c.ZeroExtend(shiftL, 11))

	// Right denormalization when the exponent is below the subnormal
	// frame (expA < 1): shift by 1-expA with jamming, or reduce to pure
	// sticky when the shift exceeds the significand width.
	r11 := c.Neg(expAm1)
	rGe28 := c.Not(c.LtS(r11, c.Const(11, 28)))
	sigR := c.ShiftRightJam(sigL, synth.Bus(r11[0:5]))
	allSticky := c.Const(27, 0)
	allSticky[0] = c.OrReduce(sigA)
	sigDen := c.MuxBus(rGe28, sigR, allSticky)
	sigB := c.MuxBus(expNeg, sigL, sigDen)
	expFin := c.MuxBus(expNeg, expOut, c.Const(11, 1))

	// Round to nearest even.
	g, r, s := sigB[2], sigB[1], sigB[0]
	mant24 := sigB[3:27]
	inexact := c.Or(g, c.Or(r, s))
	roundUp := c.And(g, c.Or(c.Or(r, s), mant24[0]))
	mantR, _ := c.Adder(c.ZeroExtend(mant24, 25), c.Const(25, 0), roundUp)
	carry := mantR[24]
	hidden := mantR[23]
	tiny := c.And(c.Not(carry), c.Not(hidden))
	uf := c.And(inexact, tiny)
	expR, _ := c.Adder(expFin, c.Const(11, 0), carry)
	of := c.Not(c.LtS(expR, c.Const(11, 255)))

	eField := c.MuxBus(tiny, synth.Bus(expR[0:8]), c.Const(8, 0))
	packed := make(synth.Bus, 32)
	copy(packed[0:23], mantR[0:23])
	copy(packed[23:31], eField)
	packed[31] = sign

	infBits := make(synth.Bus, 32)
	copy(infBits, c.Const(32, 0x7f800000))
	infBits[31] = sign
	res := c.MuxBus(of, packed, infBits)

	flags := c.Const(5, 0)
	flags[0] = c.Or(inexact, of) // NX
	flags[1] = uf                // UF
	flags[2] = of                // OF
	return res, flags
}

// addPath implements FADD/FSUB.
func addPath(c *synth.C, da, db fpDec, effSub netlist.NetID) (synth.Bus, synth.Bus) {
	sbEff := c.Xor(db.sign, effSub)

	// Operand swap so H has the larger (adjusted) exponent.
	swap := c.LtU(da.eAdj, db.eAdj)
	eH := c.MuxBus(swap, da.eAdj, db.eAdj)
	eL := c.MuxBus(swap, db.eAdj, da.eAdj)
	sigH := c.MuxBus(swap, da.sig24, db.sig24)
	sigL := c.MuxBus(swap, db.sig24, da.sig24)
	signH := c.Mux(swap, da.sign, sbEff)
	signL := c.Mux(swap, sbEff, da.sign)

	d8, _ := c.Sub(eH, eL)
	xH := append(c.Const(3, 0), sigH...) // sig << 3, 27 bits
	xL := append(c.Const(3, 0), sigL...)
	dBig := c.OrReduce(d8[5:8])
	xLbarrel := c.ShiftRightJam(xL, synth.Bus(d8[0:5]))
	xLjam := c.Const(27, 0)
	xLjam[0] = c.OrReduce(xL)
	xLs := c.MuxBus(dBig, xLbarrel, xLjam)

	sameSign := c.Xnor(signH, signL)
	sum28, _ := c.Adder(c.ZeroExtend(xH, 28), c.ZeroExtend(xLs, 28), c.Zero())
	t27, noBorrow := c.Sub(xH, xLs)
	mag27 := c.MuxBus(noBorrow, c.Neg(t27), t27)
	cancel := c.And(c.Not(sameSign), c.IsZero(mag27))
	signDiff := c.Mux(noBorrow, signL, signH)
	signRaw := c.Mux(sameSign, signDiff, signH)
	signOut := c.And(signRaw, c.Not(cancel))
	sig28 := c.MuxBus(sameSign, c.ZeroExtend(mag27, 28), sum28)

	packed, f5 := roundPackGate(c, signOut, c.ZeroExtend(eH, 11), sig28)

	// Special cases: NaN and infinity.
	anyNaN := c.Or(da.isNaN, db.isNaN)
	snan := c.Or(da.isSNaN, db.isSNaN)
	infInf := c.And(c.And(da.isInf, db.isInf), c.Xor(da.sign, sbEff))
	anyInf := c.Or(da.isInf, db.isInf)
	bEff := append(append(synth.Bus{}, db.raw[0:31]...), sbEff)
	infRes := c.MuxBus(da.isInf, bEff, da.raw)
	nanOut := c.Or(anyNaN, infInf)
	special := c.MuxBus(nanOut, infRes, c.Const(32, uint64(QNaN)))
	isSpecial := c.Or(anyNaN, anyInf)
	res := c.MuxBus(isSpecial, packed, special)
	nv := c.Or(snan, infInf)
	fSpecial := c.Const(5, 0)
	fSpecial[4] = nv
	flags := c.MuxBus(isSpecial, f5, fSpecial)
	return res, flags
}

// mulPath implements FMUL.
func mulPath(c *synth.C, da, db fpDec) (synth.Bus, synth.Bus) {
	sign := c.Xor(da.sign, db.sign)

	lza, _ := c.LZC(da.sig24)
	lzb, _ := c.LZC(db.sig24)
	sigNa := c.ShiftLeft(da.sig24, lza)
	sigNb := c.ShiftLeft(db.sig24, lzb)
	expNa, _ := c.Sub(c.ZeroExtend(da.eAdj, 11), c.ZeroExtend(lza, 11))
	expNb, _ := c.Sub(c.ZeroExtend(db.eAdj, 11), c.ZeroExtend(lzb, 11))

	prod := c.Mul(sigNa, sigNb) // 48 bits, leading 1 at 46 or 47
	expSum, _ := c.Adder(expNa, expNb, c.Zero())
	expP, _ := c.Sub(expSum, c.Const(11, 127))

	sticky := c.OrReduce(prod[0:20])
	sig28 := append(synth.Bus{}, prod[20:48]...)
	sig28[0] = c.Or(sig28[0], sticky)

	packed, f5 := roundPackGate(c, sign, expP, sig28)

	anyNaN := c.Or(da.isNaN, db.isNaN)
	snan := c.Or(da.isSNaN, db.isSNaN)
	anyInf := c.Or(da.isInf, db.isInf)
	anyZero := c.Or(da.isZero, db.isZero)
	infZero := c.Or(c.And(da.isInf, db.isZero), c.And(db.isInf, da.isZero))
	nanOut := c.Or(anyNaN, infZero)

	infBits := make(synth.Bus, 32)
	copy(infBits, c.Const(32, 0x7f800000))
	infBits[31] = sign
	zeroBits := c.Const(32, 0)
	zeroBits[31] = sign
	nonNaN := c.MuxBus(anyInf, zeroBits, infBits)
	special := c.MuxBus(nanOut, nonNaN, c.Const(32, uint64(QNaN)))
	isSpecial := c.Or(c.Or(anyNaN, anyInf), anyZero)
	res := c.MuxBus(isSpecial, packed, special)
	nv := c.Or(snan, infZero)
	fSpecial := c.Const(5, 0)
	fSpecial[4] = nv
	flags := c.MuxBus(isSpecial, f5, fSpecial)
	return res, flags
}

// comparePrimitives computes the shared ordering predicates.
type comparePrims struct {
	flt, feq               netlist.NetID // IEEE < and == for non-NaN inputs
	bothZero, anyNaN, snan netlist.NetID
}

func comparePath(c *synth.C, da, db fpDec) comparePrims {
	var p comparePrims
	p.bothZero = c.And(da.isZero, db.isZero)
	p.anyNaN = c.Or(da.isNaN, db.isNaN)
	p.snan = c.Or(da.isSNaN, db.isSNaN)
	magA := da.raw[0:31]
	magB := db.raw[0:31]
	magLt := c.LtU(magA, magB)
	magGt := c.LtU(magB, magA)
	sa, sb := da.sign, db.sign
	t1 := c.And(sa, c.Not(sb))
	t2 := c.And(c.And(sa, sb), magGt)
	t3 := c.And(c.And(c.Not(sa), c.Not(sb)), magLt)
	p.flt = c.And(c.Not(p.bothZero), c.Or(t1, c.Or(t2, t3)))
	p.feq = c.Or(c.EqualBus(da.raw, db.raw), p.bothZero)
	return p
}

// Build synthesizes the FPU into a gate-level netlist with the same
// pipeline/handshake structure as the ALU, plus the FPU-specific
// clock-gated status registers (out_valid, busy, active) whose short
// launch paths from the valid pipeline make them the hold-violation
// candidates after clock-tree aging.
func Build() *module.Module { return build(nil) }

// GuardNames lists the gate-level runtime checkers this unit can emit,
// in canonical order (mirrored by the guard package's FPU registry).
var GuardNames = []string{"sign", "exprange", "nanprop", "addswap", "mulswap"}

// BuildGuarded is Build plus synthesized always-on checker cells for the
// named guards (see internal/guard). Checkers tap the stage-2
// combinational datapath (decoded operands in, result/flag muxes out)
// and latch violations into sticky g_<name>_q alarm registers clocked
// with the result registers; the swap guards instantiate a full second
// add/multiply path with commuted operands. Checker cells and the
// "g_<name>"/"guard_fire" outputs are appended after the base netlist,
// which stays a bit-identical prefix — fault universes sampled on
// Build() remain valid. Used for costing (cell count, timing) and
// gate-level false-positive proofs; campaigns attach behavioural guards
// at the backend seam.
func BuildGuarded(guards ...string) *module.Module { return build(guards) }

func build(guards []string) *module.Module {
	b := netlist.NewBuilder("fpu")
	c := synth.NewC(b)

	clk := b.Clock("clk")
	inValid := b.Input(module.PortInValid)
	op := b.InputBus(module.PortOp, OpWidth)
	a := b.InputBus(module.PortA, 32)
	bo := b.InputBus(module.PortB, 32)

	// Depth-4 clock tree (16 leaves) with six levels of local buffering
	// under every leaf — nominally balanced, so skew appears only when
	// the rarely-enabled subtrees age. Leaf 0 is ungated (valid
	// pipeline); leaves 1-9 are gated by in_valid (operand isolation);
	// leaves 10-12 are gated by valid_q (result registers, rewired
	// below); leaves 13-15 gate the status registers on their own
	// activity.
	opts := []synth.ClockTreeOption{synth.WithLeafChain(6)}
	for leaf := 1; leaf <= 15; leaf++ {
		opts = append(opts, synth.WithLeafGate(leaf, inValid))
	}
	tree := c.BuildClockTree(clk, 4, opts...)

	validQ := b.AddDFFNamed("valid_q", inValid, tree.Leaves[0], false)

	aq := append(append(
		c.RegisterBus(a[0:11], tree.Leaves[1], 0),
		c.RegisterBus(a[11:22], tree.Leaves[2], 0)...),
		c.RegisterBus(a[22:32], tree.Leaves[3], 0)...)
	bq := append(append(
		c.RegisterBus(bo[0:11], tree.Leaves[4], 0),
		c.RegisterBus(bo[11:22], tree.Leaves[5], 0)...),
		c.RegisterBus(bo[22:32], tree.Leaves[6], 0)...)
	opq := c.RegisterBus(op, tree.Leaves[9], 0)

	// Datapath.
	da := decodeFP(c, aq)
	db := decodeFP(c, bq)
	onehot := c.Decoder(opq)

	addRes, addFlags := addPath(c, da, db, onehot[OpFsub])
	mulRes, mulFlags := mulPath(c, da, db)
	prims := comparePath(c, da, db)

	// FMIN/FMAX.
	isMax := onehot[OpFmax]
	aLess := c.Or(prims.flt, c.And(prims.bothZero, da.sign))
	takeA := c.Xor(aLess, isMax)
	ordered := c.MuxBus(takeA, bq, aq)
	bothNaN := c.And(da.isNaN, db.isNaN)
	oneNaN := c.MuxBus(da.isNaN, c.MuxBus(db.isNaN, ordered, aq), bq)
	mmRes := c.MuxBus(bothNaN, oneNaN, c.Const(32, uint64(QNaN)))
	mmFlags := c.Const(5, 0)
	mmFlags[4] = prims.snan

	// FLE/FLT/FEQ.
	le := c.Or(prims.flt, prims.feq)
	cmpSel := c.Select1H(synth.Bus{onehot[OpFle], onehot[OpFlt], onehot[OpFeq]},
		[]synth.Bus{{le}, {prims.flt}, {prims.feq}})
	cmpBit := c.And(cmpSel[0], c.Not(prims.anyNaN))
	cmpRes := c.ZeroExtend(synth.Bus{cmpBit}, 32)
	sigCmp := c.Or(onehot[OpFle], onehot[OpFlt])
	nvCmp := c.Or(c.And(sigCmp, prims.anyNaN), c.And(onehot[OpFeq], prims.snan))
	cmpFlags := c.Const(5, 0)
	cmpFlags[4] = nvCmp

	// FSGNJ/FSGNJN/FSGNJX.
	sgnjSign := c.Select1H(synth.Bus{onehot[OpFsgnj], onehot[OpFsgnjn], onehot[OpFsgnjx]},
		[]synth.Bus{{db.sign}, {c.Not(db.sign)}, {c.Xor(da.sign, db.sign)}})
	sgnjRes := append(append(synth.Bus{}, aq[0:31]...), sgnjSign[0])

	// FCLASS.
	classBits := synth.Bus{
		c.And(da.sign, da.isInf),
		c.And(da.sign, da.isNorm),
		c.And(da.sign, da.isSub),
		c.And(da.sign, da.isZero),
		c.And(c.Not(da.sign), da.isZero),
		c.And(c.Not(da.sign), da.isSub),
		c.And(c.Not(da.sign), da.isNorm),
		c.And(c.Not(da.sign), da.isInf),
		da.isSNaN,
		c.And(da.isNaN, c.Not(da.isSNaN)),
	}
	classRes := c.ZeroExtend(classBits, 32)

	zero5 := c.Const(5, 0)
	result := c.Select1H(onehot[0:NumOps], []synth.Bus{
		addRes, addRes, mulRes, mmRes, mmRes,
		cmpRes, cmpRes, cmpRes, sgnjRes, sgnjRes, sgnjRes, classRes,
	})
	flags := c.Select1H(onehot[0:NumOps], []synth.Bus{
		addFlags, addFlags, mulFlags, mmFlags, mmFlags,
		cmpFlags, cmpFlags, cmpFlags, zero5, zero5, zero5, zero5,
	})

	// Result registers (gated by valid_q).
	resultQ := append(append(
		c.RegisterBus(result[0:11], tree.Leaves[10], 0),
		c.RegisterBus(result[11:22], tree.Leaves[11], 0)...),
		c.RegisterBus(result[22:32], tree.Leaves[12], 0)...)
	flagsQ := c.RegisterBus(flags, tree.Leaves[10], 0)
	for _, leaf := range []int{10, 11, 12} {
		b.RewireInput(tree.GateCell[leaf], 1, validQ)
	}

	// Status registers on activity-gated leaves. Each samples the valid
	// pipeline (leaf 0, ungated) directly, over the shortest
	// register-to-register paths in the unit, into a rarely-clocked,
	// heavily-aged subtree: out_valid is the downstream handshake, fwe_q
	// strobes the architectural fflags accumulation, and busy_q reports
	// stage-2 occupancy. These are the unit's hold-violation candidates
	// once the clock tree ages (§3.2.2).
	outValid := b.AddDFFNamed("out_valid_q", validQ, tree.Leaves[15], false)
	b.RewireInput(tree.GateCell[15], 1, c.Or(validQ, outValid))

	fweQ := b.AddDFFNamed("fwe_q", validQ, tree.Leaves[14], false)
	b.RewireInput(tree.GateCell[14], 1, c.Or(validQ, fweQ))

	busyQ := b.AddDFFNamed("busy_q", validQ, tree.Leaves[13], false)
	b.RewireInput(tree.GateCell[13], 1, c.Or(validQ, busyQ))

	b.OutputBus(module.PortResult, resultQ)
	b.OutputBus(module.PortFlags, flagsQ)
	b.Output(module.PortOutValid, outValid)
	b.Output("flags_valid", fweQ)
	b.Output("busy", busyQ)

	// Guard checkers: stage-2 taps, sticky alarms on the result leaf.
	if len(guards) > 0 {
		synthFPUGuards(b, c, guards, fpuGuardTaps{
			da: da, db: db, onehot: onehot, aq: aq, bq: bq,
			result: result, flags: flags, clk: tree.Leaves[10],
		})
	}

	return &module.Module{
		Name:        "FPU",
		Netlist:     b.MustBuild(),
		Tree:        tree,
		Latency:     2,
		OpWidth:     OpWidth,
		FlagWidth:   FlagWidth,
		PeriodPs:    PeriodPs,
		SynthMargin: 0.012,
		Golden:      Golden,
		OpValid:     func(op uint32) bool { return Op(op).Valid() },
		StickyFlags: true,
	}
}

// Golden is Eval in the shape of the unit seam (module.GoldenFunc).
func Golden(op, a, b uint32) (result, flags uint32) {
	return Eval(Op(op), a, b)
}
