package alu

import (
	"repro/internal/module"
	"repro/internal/netlist"
	"repro/internal/synth"
)

// PeriodPs is the ALU's target clock period: 167 MHz, matching the
// paper's synthesis target for the CV32E40P ALU.
const PeriodPs = 5988.0

// Build synthesizes the ALU into a gate-level netlist and returns it with
// its analysis metadata.
//
// Microarchitecture (2-stage pipeline, valid handshake):
//
//	stage 1: operand/op registers (clock-gated by in_valid) + valid_q
//	stage 2: full datapath (adder, subtractor, barrel shifters, logic
//	         ops, comparators) muxed by a one-hot op decode into the
//	         result registers (clock-gated by valid_q), plus out_valid
//
// The clock tree has depth 3 (8 leaves). Leaf 0 is ungated and clocks the
// valid pipeline; leaves 1-5 are gated by in_valid (operand isolation);
// leaves 6-7 are gated by valid_q (result registers).
func Build() *module.Module { return build(nil) }

// GuardNames lists the gate-level runtime checkers this unit can emit,
// in canonical order (mirrored by the guard package's ALU registry).
var GuardNames = []string{"res3", "parity", "bounds", "flags"}

// BuildGuarded is Build plus synthesized always-on checker cells for the
// named guards (see internal/guard): each guard taps the stage-2
// datapath, computes its invariant in redundant logic, and latches any
// violation into a sticky alarm register g_<name>_q clocked with the
// result registers. Outputs "g_<name>" (per guard) and "guard_fire"
// (their OR) are appended after the base ports, and checker cells are
// appended after the base cells, so the base netlist is a bit-identical
// prefix — fault universes sampled on Build() remain valid.
//
// BuildGuarded exists to cost the checkers (cell count via
// netlist.Stats, timing via sta on the guarded netlist) and to prove at
// gate level that they stay silent on fault-free operation; campaigns
// attach behavioural guards at the backend seam instead.
func BuildGuarded(guards ...string) *module.Module { return build(guards) }

func build(guards []string) *module.Module {
	b := netlist.NewBuilder("alu")
	c := synth.NewC(b)

	clk := b.Clock("clk")
	inValid := b.Input(module.PortInValid)
	op := b.InputBus(module.PortOp, OpWidth)
	a := b.InputBus(module.PortA, 32)
	bo := b.InputBus(module.PortB, 32)

	// Clock tree. Result-register gates (leaves 6, 7) are temporarily
	// enabled by in_valid and rewired to valid_q once it exists.
	opts := []synth.ClockTreeOption{synth.WithLeafChain(1)}
	for leaf := 1; leaf <= 7; leaf++ {
		opts = append(opts, synth.WithLeafGate(leaf, inValid))
	}
	tree := c.BuildClockTree(clk, 3, opts...)

	// Stage 1: input registers.
	validQ := b.AddDFFNamed("valid_q", inValid, tree.Leaves[0], false)
	aq := append(
		c.RegisterBus(a[0:16], tree.Leaves[1], 0),
		c.RegisterBus(a[16:32], tree.Leaves[2], 0)...)
	bq := append(
		c.RegisterBus(bo[0:16], tree.Leaves[3], 0),
		c.RegisterBus(bo[16:32], tree.Leaves[4], 0)...)
	opq := c.RegisterBus(op, tree.Leaves[5], 0)

	// Rewire result-leaf clock gates to valid_q.
	for _, leaf := range []int{6, 7} {
		b.RewireInput(tree.GateCell[leaf], 1, validQ)
	}

	// Stage 2: datapath.
	sum, carryOut := c.Adder(aq, bq, c.Zero())
	diff, noBorrow := c.Sub(aq, bq)
	andv := c.AndBus(aq, bq)
	orv := c.OrBus(aq, bq)
	xorv := c.XorBus(aq, bq)
	shamt := bq[0:5]
	sll := c.ShiftLeft(aq, shamt)
	srl := c.ShiftRightL(aq, shamt)
	sra := c.ShiftRightA(aq, shamt)

	eq := c.EqualBus(aq, bq)
	ltu := c.Not(noBorrow)
	diffSign := c.Xor(aq[31], bq[31])
	lt := c.Mux(diffSign, ltu, aq[31])
	slt := c.ZeroExtend(synth.Bus{lt}, 32)
	sltu := c.ZeroExtend(synth.Bus{ltu}, 32)

	onehot := c.Decoder(opq)
	result := c.Select1H(onehot[0:NumOps], []synth.Bus{
		sum, diff, andv, orv, xorv, sll, srl, sra, slt, sltu,
	})

	resultQ := append(
		c.RegisterBus(result[0:16], tree.Leaves[6], 0),
		c.RegisterBus(result[16:32], tree.Leaves[7], 0)...)
	flagsQ := c.RegisterBus(synth.Bus{eq, lt, ltu}, tree.Leaves[6], 0)
	outValid := b.AddDFFNamed("out_valid_q", validQ, tree.Leaves[0], false)

	b.OutputBus(module.PortResult, resultQ)
	b.OutputBus(module.PortFlags, flagsQ)
	b.Output(module.PortOutValid, outValid)

	// Guard checkers observe the stage-2 combinational values (operand
	// registers in, result mux out) and latch violations on the same
	// valid_q-gated clock leaf as the result registers, so an alarm
	// samples exactly when a result is produced. All checker cells are
	// appended after the base netlist.
	if len(guards) > 0 {
		var alarms synth.Bus
		alarm := func(name string, fire netlist.NetID) {
			q := c.StickyAlarm("g_"+name+"_q", fire, tree.Leaves[6])
			b.Output("g_"+name, q)
			alarms = append(alarms, q)
		}
		for _, name := range guards {
			switch name {
			case "res3":
				// Mod-3 residue with the carry/borrow taps: because
				// 2^32 ≡ 1 (mod 3), r ≡ a+b−carry and r ≡ a−b+borrow.
				ra, rb, rr := mod3(c, aq), mod3(c, bq), mod3(c, result)
				borrow := c.Not(noBorrow)
				expAdd := mod3Add(c, mod3Add(c, ra, rb),
					synth.Bus{c.Zero(), carryOut}) // −carry ≡ +2·carry
				expSub := mod3Add(c, mod3Add(c, ra, mod3Neg(rb)),
					synth.Bus{borrow, c.Zero()}) // +borrow
				neqA := c.Or(c.Xor(expAdd[0], rr[0]), c.Xor(expAdd[1], rr[1]))
				neqS := c.Or(c.Xor(expSub[0], rr[0]), c.Xor(expSub[1], rr[1]))
				alarm(name, c.Or(
					c.And(onehot[OpAdd], neqA),
					c.And(onehot[OpSub], neqS)))
			case "parity":
				// parity(a^b) == parity(a) ^ parity(b).
				pr := c.XorReduce(result)
				pab := c.Xor(c.XorReduce(aq), c.XorReduce(bq))
				alarm(name, c.And(onehot[OpXor], c.Xor(pr, pab)))
			case "bounds":
				// Bit-domain bounds on the logic/shift/compare ops.
				ones := c.Const(32, 0xffffffff)
				andBad := c.OrReduce(c.OrBus(
					c.AndBus(result, c.NotBus(aq)),
					c.AndBus(result, c.NotBus(bq))))
				orBad := c.OrReduce(c.AndBus(c.OrBus(aq, bq), c.NotBus(result)))
				sllBad := c.OrReduce(c.AndBus(result, c.NotBus(c.ShiftLeft(ones, shamt))))
				hiMask := c.NotBus(c.ShiftRightL(ones, shamt))
				srlBad := c.OrReduce(c.AndBus(result, hiMask))
				sraBad := c.OrReduce(c.AndBus(
					c.XorBus(result, c.Repeat(aq[31], 32)), hiMask))
				cmpBad := c.OrReduce(result[1:32])
				alarm(name, c.OrReduce(synth.Bus{
					c.And(onehot[OpAnd], andBad),
					c.And(onehot[OpOr], orBad),
					c.And(onehot[OpSll], sllBad),
					c.And(onehot[OpSrl], srlBad),
					c.And(onehot[OpSra], sraBad),
					c.And(c.Or(onehot[OpSlt], onehot[OpSltu]), cmpBad),
				}))
			case "flags":
				// Flag-triple consistency plus SLT/SLTU result agreement.
				inconsistent := c.Or(
					c.And(eq, c.Or(lt, ltu)),
					c.Xor(diffSign, c.Xor(lt, ltu)))
				hi := c.OrReduce(result[1:32])
				sltBad := c.And(onehot[OpSlt], c.Or(c.Xor(result[0], lt), hi))
				sltuBad := c.And(onehot[OpSltu], c.Or(c.Xor(result[0], ltu), hi))
				alarm(name, c.OrReduce(synth.Bus{inconsistent, sltBad, sltuBad}))
			default:
				panic("alu: unknown guard " + name)
			}
		}
		b.Output("guard_fire", c.OrReduce(alarms))
	}

	return &module.Module{
		Name:        "ALU",
		Netlist:     b.MustBuild(),
		Tree:        tree,
		Latency:     2,
		OpWidth:     OpWidth,
		FlagWidth:   FlagWidth,
		PeriodPs:    PeriodPs,
		SynthMargin: 0.0243,
		Golden:      Golden,
		OpValid:     func(op uint32) bool { return Op(op).Valid() },
	}
}

// Golden is the behavioural model in the shape of the unit seam
// (module.GoldenFunc): Eval's result beside the comparison Flags.
func Golden(op, a, b uint32) (result, flags uint32) {
	return Eval(Op(op), a, b), Flags(a, b)
}

// mod3 reduces a bus to its residue mod 3 as a 2-bit value in {0,1,2}.
// Two-bit digits have weight 4^i ≡ 1 (mod 3), so the residue is the
// mod-3 sum of the 16 digits: leaves normalize the digit value 3 to 0,
// then a balanced tree of mod-3 adders folds them together. This is the
// checker structure a hardware residue code uses.
func mod3(c *synth.C, x synth.Bus) synth.Bus {
	var digits []synth.Bus
	for i := 0; i < len(x); i += 2 {
		lo := c.And(x[i], c.Not(x[i+1]))
		hi := c.And(x[i+1], c.Not(x[i]))
		digits = append(digits, synth.Bus{lo, hi})
	}
	for len(digits) > 1 {
		var next []synth.Bus
		for i := 0; i+1 < len(digits); i += 2 {
			next = append(next, mod3Add(c, digits[i], digits[i+1]))
		}
		if len(digits)%2 == 1 {
			next = append(next, digits[len(digits)-1])
		}
		digits = next
	}
	return digits[0]
}

// mod3Add adds two residues in {0,1,2}: s = u+v in 0..4, folded back to
// {0,1,2} with two gates off the 3-bit sum (0,1,2,0,1).
func mod3Add(c *synth.C, u, v synth.Bus) synth.Bus {
	sum, _ := c.Adder(c.ZeroExtend(u, 3), c.ZeroExtend(v, 3), c.Zero())
	lo := c.Or(c.And(sum[0], c.Not(sum[1])), sum[2])
	hi := c.And(sum[1], c.Not(sum[0]))
	return synth.Bus{lo, hi}
}

// mod3Neg negates a residue in {0,1,2}: 3−v mod 3 swaps the encodings of
// 1 and 2 — a pure wire swap, no cells.
func mod3Neg(v synth.Bus) synth.Bus { return synth.Bus{v[1], v[0]} }
