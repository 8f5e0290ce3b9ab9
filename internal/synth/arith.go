package synth

import "repro/internal/netlist"

// FullAdder returns (sum, carry) for a+b+cin using the classic two-XOR,
// two-AND, one-OR decomposition.
func (c *C) FullAdder(a, b, cin netlist.NetID) (sum, cout netlist.NetID) {
	axb := c.Xor(a, b)
	sum = c.Xor(axb, cin)
	cout = c.Or(c.And(a, b), c.And(axb, cin))
	return sum, cout
}

// Adder returns a+b+cin as (sum, carryOut) with a ripple-carry chain. The
// buses must have equal width.
func (c *C) Adder(a, b Bus, cin netlist.NetID) (Bus, netlist.NetID) {
	if len(a) != len(b) {
		panic("synth: adder width mismatch")
	}
	sum := make(Bus, len(a))
	carry := cin
	for i := range a {
		sum[i], carry = c.FullAdder(a[i], b[i], carry)
	}
	return sum, carry
}

// Sub returns a-b as (diff, carryOut). carryOut is the "no borrow" flag:
// 1 when a >= b in the unsigned sense.
func (c *C) Sub(a, b Bus) (Bus, netlist.NetID) {
	return c.Adder(a, c.NotBus(b), c.One())
}

// Inc returns a+1 (dropping the final carry).
func (c *C) Inc(a Bus) Bus {
	s, _ := c.Adder(a, c.Const(len(a), 0), c.One())
	return s
}

// Neg returns the two's complement of a.
func (c *C) Neg(a Bus) Bus { return c.Inc(c.NotBus(a)) }

// LtU returns 1 iff a < b, unsigned.
func (c *C) LtU(a, b Bus) netlist.NetID {
	_, noBorrow := c.Sub(a, b)
	return c.Not(noBorrow)
}

// LtS returns 1 iff a < b as two's-complement signed values.
func (c *C) LtS(a, b Bus) netlist.NetID {
	n := len(a)
	ltu := c.LtU(a, b)
	sa, sb := a[n-1], b[n-1]
	diffSign := c.Xor(sa, sb)
	// Same signs: unsigned compare is correct. Different signs: a<b iff a
	// is the negative one.
	return c.Mux(diffSign, ltu, sa)
}

// ShiftLeft returns a << sh (logical) for a shift amount bus sh; bits
// shifted in are zero. Shift amounts >= len(a) yield zero when sh is wide
// enough to express them.
func (c *C) ShiftLeft(a Bus, sh Bus) Bus {
	cur := append(Bus(nil), a...)
	for k, s := range sh {
		shifted := make(Bus, len(a))
		amt := 1 << uint(k)
		for i := range shifted {
			if i >= amt {
				shifted[i] = cur[i-amt]
			} else {
				shifted[i] = c.Zero()
			}
		}
		cur = c.MuxBus(s, cur, shifted)
	}
	return cur
}

// ShiftRightL returns a >> sh with zero fill.
func (c *C) ShiftRightL(a Bus, sh Bus) Bus { return c.shiftRight(a, sh, c.Zero()) }

// ShiftRightA returns a >> sh with sign fill.
func (c *C) ShiftRightA(a Bus, sh Bus) Bus { return c.shiftRight(a, sh, a[len(a)-1]) }

func (c *C) shiftRight(a Bus, sh Bus, fill netlist.NetID) Bus {
	cur := append(Bus(nil), a...)
	for k, s := range sh {
		shifted := make(Bus, len(a))
		amt := 1 << uint(k)
		for i := range shifted {
			if i+amt < len(a) {
				shifted[i] = cur[i+amt]
			} else {
				shifted[i] = fill
			}
		}
		cur = c.MuxBus(s, cur, shifted)
	}
	return cur
}

// ShiftRightJam returns a >> sh with the sticky ("jam") convention used
// by floating-point alignment: every bit shifted out is ORed into bit 0 of
// the result. Shift amounts >= len(a) reduce the bus to its OR.
func (c *C) ShiftRightJam(a Bus, sh Bus) Bus {
	cur := append(Bus(nil), a...)
	sticky := c.Zero()
	for k, s := range sh {
		amt := 1 << uint(k)
		shifted := make(Bus, len(a))
		for i := range shifted {
			if i+amt < len(a) {
				shifted[i] = cur[i+amt]
			} else {
				shifted[i] = c.Zero()
			}
		}
		var dropped Bus
		for i := 0; i < amt && i < len(a); i++ {
			dropped = append(dropped, cur[i])
		}
		stickyIf := c.Or(sticky, c.OrReduce(dropped))
		sticky = c.Mux(s, sticky, stickyIf)
		cur = c.MuxBus(s, cur, shifted)
	}
	cur[0] = c.Or(cur[0], sticky)
	return cur
}

// Mul returns the full-width unsigned product a*b (len(a)+len(b) bits)
// using a shift-and-add array of ripple adders — the layout a synthesis
// tool would pick for a small area target.
func (c *C) Mul(a, b Bus) Bus {
	w := len(a) + len(b)
	acc := c.Const(w, 0)
	for i, bi := range b {
		pp := make(Bus, w)
		for j := range pp {
			if j >= i && j-i < len(a) {
				pp[j] = c.And(a[j-i], bi)
			} else {
				pp[j] = c.Zero()
			}
		}
		acc, _ = c.Adder(acc, pp, c.Zero())
	}
	return acc
}

// LZC returns the leading-zero count of a as a minimal-width bus, plus an
// "all zero" flag. Bit order: a[len-1] is the leading (most significant)
// bit.
func (c *C) LZC(a Bus) (count Bus, allZero netlist.NetID) {
	width := 1
	for 1<<uint(width) < len(a)+1 {
		width++
	}
	// Priority scan: walk from LSB to MSB so that the most significant
	// set bit provides the final count.
	cnt := c.Const(width, uint64(len(a))) // all-zero case
	for i := 0; i < len(a); i++ {
		cnt = c.MuxBus(a[i], cnt, c.Const(width, uint64(len(a)-1-i)))
	}
	return cnt, c.IsZero(a)
}

// OnesCount returns the population count of a.
func (c *C) OnesCount(a Bus) Bus {
	width := 1
	for 1<<uint(width) < len(a)+1 {
		width++
	}
	acc := c.Const(width, 0)
	for _, bit := range a {
		one := c.ZeroExtend(Bus{bit}, width)
		acc, _ = c.Adder(acc, one, c.Zero())
	}
	return acc
}

// AdderCSel returns a+b+cin as a carry-select adder: the bus is split
// into blocks; each block computes both carry-in hypotheses in parallel
// and a mux chain picks the real ones. Shorter critical path than the
// ripple adder at roughly twice the area — the standard
// timing-vs-area knob a synthesis tool turns when a ripple adder misses
// timing.
func (c *C) AdderCSel(a, b Bus, cin netlist.NetID, blockSize int) (Bus, netlist.NetID) {
	if len(a) != len(b) {
		panic("synth: adder width mismatch")
	}
	if blockSize < 1 {
		blockSize = 4
	}
	sum := make(Bus, len(a))
	carry := cin
	for lo := 0; lo < len(a); lo += blockSize {
		hi := lo + blockSize
		if hi > len(a) {
			hi = len(a)
		}
		if lo == 0 {
			// First block: the real carry-in is available immediately.
			s, co := c.Adder(a[lo:hi], b[lo:hi], carry)
			copy(sum[lo:hi], s)
			carry = co
			continue
		}
		s0, c0 := c.Adder(a[lo:hi], b[lo:hi], c.Zero())
		s1, c1 := c.Adder(a[lo:hi], b[lo:hi], c.One())
		copy(sum[lo:hi], c.MuxBus(carry, s0, s1))
		carry = c.Mux(carry, c0, c1)
	}
	return sum, carry
}
