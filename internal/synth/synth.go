// Package synth is the structural synthesis library: it lowers word-level
// datapath descriptions into netlists of standard cells. It plays the role
// of the paper's Genus/Design Compiler synthesis step — the downstream
// phases (SP simulation, aging-aware STA, failure-model instrumentation,
// BMC) all consume its gate-level output.
//
// The entry point is C, a combinator context over a netlist.Builder. Bit
// operations perform light constant folding (against nets created by
// Zero/One/Const only) so that datapaths instantiated with constant
// control inputs stay small, mirroring what logic optimization does in a
// real synthesis flow.
package synth

import (
	"repro/internal/cell"
	"repro/internal/netlist"
)

// Bus re-exports the netlist bus type for callers' convenience.
type Bus = netlist.Bus

// C is a synthesis context. All combinators append cells to the wrapped
// builder and return the new output nets.
type C struct {
	B *netlist.Builder

	zero, one netlist.NetID
	consts    map[netlist.NetID]bool // nets with a known constant value
}

// NewC wraps a builder in a synthesis context.
func NewC(b *netlist.Builder) *C {
	return &C{B: b, zero: netlist.NoNet, one: netlist.NoNet, consts: make(map[netlist.NetID]bool)}
}

// Zero returns the shared constant-0 net, creating the TIE0 cell on first
// use.
func (c *C) Zero() netlist.NetID {
	if c.zero == netlist.NoNet {
		c.zero = c.B.Add(cell.TIE0)
		c.consts[c.zero] = false
	}
	return c.zero
}

// One returns the shared constant-1 net.
func (c *C) One() netlist.NetID {
	if c.one == netlist.NoNet {
		c.one = c.B.Add(cell.TIE1)
		c.consts[c.one] = true
	}
	return c.one
}

// constOf reports whether n is a known constant and its value.
func (c *C) constOf(n netlist.NetID) (bool, bool) {
	v, ok := c.consts[n]
	return v, ok
}

// Const returns a width-bit bus holding value (LSB first).
func (c *C) Const(width int, value uint64) Bus {
	b := make(Bus, width)
	for i := range b {
		if value>>uint(i)&1 == 1 {
			b[i] = c.One()
		} else {
			b[i] = c.Zero()
		}
	}
	return b
}

// Not returns !a.
func (c *C) Not(a netlist.NetID) netlist.NetID {
	if v, ok := c.constOf(a); ok {
		if v {
			return c.Zero()
		}
		return c.One()
	}
	return c.B.Add(cell.INV, a)
}

// And returns a & b.
func (c *C) And(a, b netlist.NetID) netlist.NetID {
	if v, ok := c.constOf(a); ok {
		if !v {
			return c.Zero()
		}
		return b
	}
	if v, ok := c.constOf(b); ok {
		if !v {
			return c.Zero()
		}
		return a
	}
	if a == b {
		return a
	}
	return c.B.Add(cell.AND2, a, b)
}

// Or returns a | b.
func (c *C) Or(a, b netlist.NetID) netlist.NetID {
	if v, ok := c.constOf(a); ok {
		if v {
			return c.One()
		}
		return b
	}
	if v, ok := c.constOf(b); ok {
		if v {
			return c.One()
		}
		return a
	}
	if a == b {
		return a
	}
	return c.B.Add(cell.OR2, a, b)
}

// Xor returns a ^ b.
func (c *C) Xor(a, b netlist.NetID) netlist.NetID {
	if v, ok := c.constOf(a); ok {
		if v {
			return c.Not(b)
		}
		return b
	}
	if v, ok := c.constOf(b); ok {
		if v {
			return c.Not(a)
		}
		return a
	}
	if a == b {
		return c.Zero()
	}
	return c.B.Add(cell.XOR2, a, b)
}

// Nor returns !(a | b).
func (c *C) Nor(a, b netlist.NetID) netlist.NetID {
	if _, ok := c.constOf(a); ok {
		return c.Not(c.Or(a, b))
	}
	if _, ok := c.constOf(b); ok {
		return c.Not(c.Or(a, b))
	}
	return c.B.Add(cell.NOR2, a, b)
}

// Xnor returns !(a ^ b).
func (c *C) Xnor(a, b netlist.NetID) netlist.NetID {
	if _, ok := c.constOf(a); ok {
		return c.Not(c.Xor(a, b))
	}
	if _, ok := c.constOf(b); ok {
		return c.Not(c.Xor(a, b))
	}
	if a == b {
		return c.One()
	}
	return c.B.Add(cell.XNOR2, a, b)
}

// Mux returns s ? b : a.
func (c *C) Mux(s, a, b netlist.NetID) netlist.NetID {
	if v, ok := c.constOf(s); ok {
		if v {
			return b
		}
		return a
	}
	if a == b {
		return a
	}
	va, oka := c.constOf(a)
	vb, okb := c.constOf(b)
	switch {
	case oka && okb:
		// a and b differ (a==b handled above): s?1:0 = s, s?0:1 = !s.
		if vb && !va {
			return s
		}
		return c.Not(s)
	case oka && !va: // s ? b : 0
		return c.And(s, b)
	case oka && va: // s ? b : 1  =  !s | b
		return c.Or(c.Not(s), b)
	case okb && !vb: // s ? 0 : a  =  !s & a
		return c.And(c.Not(s), a)
	case okb && vb: // s ? 1 : a  =  s | a
		return c.Or(s, a)
	}
	return c.B.Add(cell.MUX2, a, b, s)
}

// --- Bus (word-level) combinators ---

// NotBus inverts every bit.
func (c *C) NotBus(a Bus) Bus { return c.mapBus(a, c.Not) }

func (c *C) mapBus(a Bus, f func(netlist.NetID) netlist.NetID) Bus {
	out := make(Bus, len(a))
	for i, n := range a {
		out[i] = f(n)
	}
	return out
}

// AndBus computes the bitwise AND of equal-width buses.
func (c *C) AndBus(a, b Bus) Bus { return c.zipBus(a, b, c.And) }

// OrBus computes the bitwise OR.
func (c *C) OrBus(a, b Bus) Bus { return c.zipBus(a, b, c.Or) }

// XorBus computes the bitwise XOR.
func (c *C) XorBus(a, b Bus) Bus { return c.zipBus(a, b, c.Xor) }

func (c *C) zipBus(a, b Bus, f func(x, y netlist.NetID) netlist.NetID) Bus {
	if len(a) != len(b) {
		panic("synth: bus width mismatch")
	}
	out := make(Bus, len(a))
	for i := range a {
		out[i] = f(a[i], b[i])
	}
	return out
}

// MuxBus returns s ? b : a elementwise.
func (c *C) MuxBus(s netlist.NetID, a, b Bus) Bus {
	if len(a) != len(b) {
		panic("synth: bus width mismatch")
	}
	out := make(Bus, len(a))
	for i := range a {
		out[i] = c.Mux(s, a[i], b[i])
	}
	return out
}

// OrReduce ORs all bits together with a balanced tree.
func (c *C) OrReduce(a Bus) netlist.NetID { return c.reduce(a, c.Or, false) }

// AndReduce ANDs all bits together.
func (c *C) AndReduce(a Bus) netlist.NetID { return c.reduce(a, c.And, true) }

// XorReduce XORs all bits together (parity).
func (c *C) XorReduce(a Bus) netlist.NetID { return c.reduce(a, c.Xor, false) }

func (c *C) reduce(a Bus, f func(x, y netlist.NetID) netlist.NetID, empty bool) netlist.NetID {
	if len(a) == 0 {
		if empty {
			return c.One()
		}
		return c.Zero()
	}
	for len(a) > 1 {
		next := make(Bus, 0, (len(a)+1)/2)
		for i := 0; i+1 < len(a); i += 2 {
			next = append(next, f(a[i], a[i+1]))
		}
		if len(a)%2 == 1 {
			next = append(next, a[len(a)-1])
		}
		a = next
	}
	return a[0]
}

// IsZero returns 1 iff the bus is all zeros.
func (c *C) IsZero(a Bus) netlist.NetID { return c.Not(c.OrReduce(a)) }

// EqualBus returns 1 iff a == b.
func (c *C) EqualBus(a, b Bus) netlist.NetID {
	return c.IsZero(c.XorBus(a, b))
}

// Repeat returns a bus of width copies of bit n.
func (c *C) Repeat(n netlist.NetID, width int) Bus {
	out := make(Bus, width)
	for i := range out {
		out[i] = n
	}
	return out
}

// ZeroExtend widens a to width bits with zeros (or truncates).
func (c *C) ZeroExtend(a Bus, width int) Bus {
	out := make(Bus, width)
	for i := range out {
		if i < len(a) {
			out[i] = a[i]
		} else {
			out[i] = c.Zero()
		}
	}
	return out
}

// Decoder returns the 2^len(sel)-bit one-hot decode of sel.
func (c *C) Decoder(sel Bus) Bus {
	out := Bus{c.One()}
	for _, s := range sel {
		ns := c.Not(s)
		next := make(Bus, 0, len(out)*2)
		for _, o := range out {
			next = append(next, c.And(o, ns))
		}
		for _, o := range out {
			next = append(next, c.And(o, s))
		}
		out = next
	}
	return out
}

// Select1H builds an AND-OR selector: out = OR_i (onehot[i] ? options[i]).
// All options must share a width. Exactly one select line is expected to
// be high; if none is, the output is zero.
func (c *C) Select1H(onehot Bus, options []Bus) Bus {
	if len(onehot) != len(options) {
		panic("synth: one-hot width mismatch")
	}
	if len(options) == 0 {
		panic("synth: empty selector")
	}
	width := len(options[0])
	acc := make(Bus, width)
	for i := range acc {
		acc[i] = c.Zero()
	}
	for i, opt := range options {
		if len(opt) != width {
			panic("synth: option width mismatch")
		}
		masked := c.AndBus(opt, c.Repeat(onehot[i], width))
		acc = c.OrBus(acc, masked)
	}
	return acc
}

// RegisterBus instantiates one DFF per bit, clocked by clk.
func (c *C) RegisterBus(d Bus, clk netlist.NetID, init uint64) Bus {
	out := make(Bus, len(d))
	for i, n := range d {
		out[i] = c.B.AddDFF(n, clk, init>>uint(i)&1 == 1)
	}
	return out
}

// StickyAlarm instantiates a set-dominant alarm register: a DFF whose D
// input is (Q | fire), so a single asserted cycle of fire latches the
// alarm until reset. The runtime-guard checkers (alu.BuildGuarded,
// fpu.BuildGuarded) use it to make one-cycle invariant violations
// observable at module outputs.
func (c *C) StickyAlarm(name string, fire, clk netlist.NetID) netlist.NetID {
	q := c.B.Net()
	d := c.Or(q, fire)
	c.B.AddRaw(cell.DFF, name, []netlist.NetID{d}, clk, q, false)
	return q
}
