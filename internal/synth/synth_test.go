package synth

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/cell"
	"repro/internal/netlist"
	"repro/internal/sim"
)

// buildBinop synthesizes a combinational module out = f(a, b) with the
// given widths and returns a simulator for it.
func buildBinop(t *testing.T, wa, wb int, f func(c *C, a, b Bus) Bus) *sim.Simulator {
	t.Helper()
	b := netlist.NewBuilder("dut")
	c := NewC(b)
	a := b.InputBus("a", wa)
	bb := b.InputBus("b", wb)
	out := f(c, a, bb)
	b.OutputBus("out", out)
	nl, err := b.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return sim.New(nl)
}

func evalBinop(s *sim.Simulator, a, b uint64) uint64 {
	s.SetInput("a", a)
	s.SetInput("b", b)
	return s.Output("out")
}

func TestAdder32(t *testing.T) {
	s := buildBinop(t, 32, 32, func(c *C, a, b Bus) Bus {
		sum, cout := c.Adder(a, b, c.Zero())
		return append(append(Bus{}, sum...), cout)
	})
	f := func(a, b uint32) bool {
		got := evalBinop(s, uint64(a), uint64(b))
		want := uint64(a) + uint64(b)
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func TestSub32(t *testing.T) {
	s := buildBinop(t, 32, 32, func(c *C, a, b Bus) Bus {
		d, _ := c.Sub(a, b)
		return d
	})
	f := func(a, b uint32) bool {
		return evalBinop(s, uint64(a), uint64(b)) == uint64(a-b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func TestCompares(t *testing.T) {
	ltu := buildBinop(t, 16, 16, func(c *C, a, b Bus) Bus { return Bus{c.LtU(a, b)} })
	lts := buildBinop(t, 16, 16, func(c *C, a, b Bus) Bus { return Bus{c.LtS(a, b)} })
	eq := buildBinop(t, 16, 16, func(c *C, a, b Bus) Bus { return Bus{c.EqualBus(a, b)} })
	f := func(a, b uint16) bool {
		wantLtu := uint64(0)
		if a < b {
			wantLtu = 1
		}
		wantLts := uint64(0)
		if int16(a) < int16(b) {
			wantLts = 1
		}
		wantEq := uint64(0)
		if a == b {
			wantEq = 1
		}
		return evalBinop(ltu, uint64(a), uint64(b)) == wantLtu &&
			evalBinop(lts, uint64(a), uint64(b)) == wantLts &&
			evalBinop(eq, uint64(a), uint64(b)) == wantEq
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
	// Edge cases quick.Check may miss.
	cases := [][2]uint16{{0, 0}, {0x8000, 0x7fff}, {0x7fff, 0x8000}, {0xffff, 0}, {5, 5}}
	for _, cse := range cases {
		if !f(cse[0], cse[1]) {
			t.Errorf("compare failed on %v", cse)
		}
	}
}

func TestShifts(t *testing.T) {
	mk := func(f func(c *C, a, sh Bus) Bus) *sim.Simulator {
		return buildBinop(t, 32, 5, func(c *C, a, b Bus) Bus { return f(c, a, b) })
	}
	sll := mk(func(c *C, a, sh Bus) Bus { return c.ShiftLeft(a, sh) })
	srl := mk(func(c *C, a, sh Bus) Bus { return c.ShiftRightL(a, sh) })
	sra := mk(func(c *C, a, sh Bus) Bus { return c.ShiftRightA(a, sh) })
	f := func(a uint32, shRaw uint8) bool {
		sh := uint(shRaw % 32)
		okSll := evalBinop(sll, uint64(a), uint64(sh)) == uint64(a<<sh)
		okSrl := evalBinop(srl, uint64(a), uint64(sh)) == uint64(a>>sh)
		okSra := evalBinop(sra, uint64(a), uint64(sh)) == uint64(uint32(int32(a)>>sh))
		return okSll && okSrl && okSra
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func TestMul16(t *testing.T) {
	s := buildBinop(t, 16, 16, func(c *C, a, b Bus) Bus { return c.Mul(a, b) })
	f := func(a, b uint16) bool {
		return evalBinop(s, uint64(a), uint64(b)) == uint64(a)*uint64(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func TestLZC(t *testing.T) {
	s := buildBinop(t, 16, 1, func(c *C, a, b Bus) Bus {
		cnt, zero := c.LZC(a)
		return append(append(Bus{}, cnt...), zero)
	})
	lzc16 := func(x uint16) uint64 {
		n := uint64(0)
		for i := 15; i >= 0; i-- {
			if x>>uint(i)&1 == 1 {
				return n
			}
			n++
		}
		return 16
	}
	f := func(a uint16) bool {
		got := evalBinop(s, uint64(a), 0)
		cnt := got & 0x1f
		zero := got >> 5 & 1
		wantZero := uint64(0)
		if a == 0 {
			wantZero = 1
		}
		return cnt == lzc16(a) && zero == wantZero
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
	if !f(0) || !f(1) || !f(0x8000) || !f(0xffff) {
		t.Error("LZC edge cases failed")
	}
}

func TestOnesCount(t *testing.T) {
	s := buildBinop(t, 12, 1, func(c *C, a, b Bus) Bus { return c.OnesCount(a) })
	f := func(a uint16) bool {
		x := a & 0xfff
		want := uint64(0)
		for i := 0; i < 12; i++ {
			want += uint64(x >> uint(i) & 1)
		}
		return evalBinop(s, uint64(x), 0) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func TestDecoderAndSelect(t *testing.T) {
	s := buildBinop(t, 2, 1, func(c *C, sel, _ Bus) Bus { return c.Decoder(sel) })
	for v := uint64(0); v < 4; v++ {
		if got := evalBinop(s, v, 0); got != 1<<v {
			t.Errorf("Decoder(%d) = %04b", v, got)
		}
	}
	s2 := buildBinop(t, 2, 8, func(c *C, sel, b Bus) Bus {
		oh := c.Decoder(sel)
		opts := []Bus{
			b[0:2], b[2:4], b[4:6], b[6:8],
		}
		return c.Select1H(oh, opts)
	})
	f := func(sel uint8, b uint8) bool {
		s := uint64(sel % 4)
		want := uint64(b) >> (2 * s) & 3
		return evalBinop(s2, s, uint64(b)) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func TestConstantFolding(t *testing.T) {
	b := netlist.NewBuilder("fold")
	c := NewC(b)
	x := b.Input("x")
	// All of these should fold without creating gates beyond the ties.
	if c.And(x, c.Zero()) != c.Zero() {
		t.Error("And(x,0) != 0")
	}
	if c.And(x, c.One()) != x {
		t.Error("And(x,1) != x")
	}
	if c.Or(x, c.One()) != c.One() {
		t.Error("Or(x,1) != 1")
	}
	if c.Xor(x, c.Zero()) != x {
		t.Error("Xor(x,0) != x")
	}
	if c.Mux(c.One(), x, c.Zero()) != c.Zero() {
		t.Error("Mux(1,x,0) != 0")
	}
	if c.Mux(x, c.Zero(), c.One()) != x {
		t.Error("Mux(x,0,1) != x")
	}
	gates := 0
	for i := 0; i < b.NumCells(); i++ {
		k := b.Cell(netlist.CellID(i)).Kind
		if k != cell.TIE0 && k != cell.TIE1 && k != cell.INV {
			gates++
		}
	}
	if gates != 0 {
		t.Errorf("constant folding created %d gates", gates)
	}
}

func TestMuxBusAndExtend(t *testing.T) {
	s := buildBinop(t, 9, 8, func(c *C, a, b Bus) Bus {
		sel := a[8]
		return c.MuxBus(sel, a[0:8], b)
	})
	f := func(a, b, selRaw uint8) bool {
		sel := uint64(selRaw & 1)
		in := uint64(a) | sel<<8
		want := uint64(a)
		if sel == 1 {
			want = uint64(b)
		}
		return evalBinop(s, in, uint64(b)) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}

	ze := buildBinop(t, 4, 1, func(c *C, a, _ Bus) Bus { return c.ZeroExtend(a, 8) })
	for v := uint64(0); v < 16; v++ {
		if got := evalBinop(ze, v, 0); got != v {
			t.Errorf("ZeroExtend(%d) = %d, want %d", v, got, v)
		}
	}
}

func TestClockTreeShape(t *testing.T) {
	b := netlist.NewBuilder("clktree")
	c := NewC(b)
	clk := b.Clock("clk")
	en := b.Input("en")
	tree := c.BuildClockTree(clk, 3, WithLeafGate(5, en))
	// Hang a DFF on every leaf so the netlist validates.
	d := b.Input("d")
	var qs Bus
	for _, leaf := range tree.Leaves {
		qs = append(qs, b.AddDFF(d, leaf, false))
	}
	b.OutputBus("q", qs)
	nl, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(tree.Leaves) != 8 {
		t.Fatalf("leaves = %d, want 8", len(tree.Leaves))
	}
	for i, chain := range tree.BufferChain {
		if len(chain) != 3 {
			t.Errorf("leaf %d chain depth %d, want 3", i, len(chain))
		}
	}
	if nl.CountKind(cell.CLKGATE) != 1 {
		t.Errorf("CLKGATE count = %d, want 1", nl.CountKind(cell.CLKGATE))
	}
	// 2+4+8 tree cells, one of which is the gate.
	if got := nl.CountKind(cell.CLKBUF); got != 13 {
		t.Errorf("CLKBUF count = %d, want 13", got)
	}

	// Functional: gated leaf holds state when en=0, others keep clocking.
	s := sim.New(nl)
	s.SetInput("en", 0)
	s.SetInput("d", 1)
	s.Step()
	q := s.Output("q")
	if q != 0xdf { // leaf 5 gated off
		t.Errorf("q = %02x, want df", q)
	}
	s.SetInput("en", 1)
	s.Step()
	if q := s.Output("q"); q != 0xff {
		t.Errorf("q = %02x, want ff", q)
	}
}

func TestReduceOps(t *testing.T) {
	s := buildBinop(t, 8, 1, func(c *C, a, _ Bus) Bus {
		return Bus{c.OrReduce(a), c.AndReduce(a), c.XorReduce(a), c.IsZero(a)}
	})
	f := func(a uint8) bool {
		got := evalBinop(s, uint64(a), 0)
		or := got & 1
		and := got >> 1 & 1
		xor := got >> 2 & 1
		zero := got >> 3 & 1
		wantOr, wantAnd, wantXor, wantZero := uint64(0), uint64(1), uint64(0), uint64(1)
		if a != 0 {
			wantOr, wantZero = 1, 0
		}
		if a != 0xff {
			wantAnd = 0
		}
		for i := 0; i < 8; i++ {
			wantXor ^= uint64(a >> uint(i) & 1)
		}
		return or == wantOr && and == wantAnd && xor == wantXor && zero == wantZero
	}
	for v := 0; v < 256; v++ {
		if !f(uint8(v)) {
			t.Fatalf("reduce ops wrong for %02x", v)
		}
	}
}

func TestAdderCSel(t *testing.T) {
	for _, bs := range []int{1, 3, 4, 8, 32, 64} {
		s := buildBinop(t, 32, 32, func(c *C, a, b Bus) Bus {
			sum, cout := c.AdderCSel(a, b, c.Zero(), bs)
			return append(append(Bus{}, sum...), cout)
		})
		f := func(a, b uint32) bool {
			return evalBinop(s, uint64(a), uint64(b)) == uint64(a)+uint64(b)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(1))}); err != nil {
			t.Fatalf("block size %d: %v", bs, err)
		}
	}
}

func TestAdderCSelShorterCriticalPath(t *testing.T) {
	// Build both adders as standalone modules and compare their fresh
	// critical delays with the timing engine: the carry-select variant
	// must be strictly faster at 32 bits.
	build := func(sel bool) *netlist.Netlist {
		b := netlist.NewBuilder("adder")
		c := NewC(b)
		clk := b.Clock("clk")
		a := c.RegisterBus(b.InputBus("a", 32), clk, 0)
		bb := c.RegisterBus(b.InputBus("b", 32), clk, 0)
		var sum Bus
		if sel {
			sum, _ = c.AdderCSel(a, bb, c.Zero(), 8)
		} else {
			sum, _ = c.Adder(a, bb, c.Zero())
		}
		q := c.RegisterBus(sum, clk, 0)
		b.OutputBus("s", q)
		return b.MustBuild()
	}
	ripple := build(false)
	csel := build(true)
	// Longest combinational level count is a proxy for delay here (the
	// sta package depends on synth, so the full STA comparison lives in
	// the sta tests).
	depth := func(nl *netlist.Netlist) int {
		level := make(map[int]int)
		worst := 0
		for _, cid := range nl.Topo() {
			c := nl.Cells[cid]
			l := 0
			for _, in := range c.In {
				if d := nl.Driver(in); d != netlist.NoCell && !nl.Cells[d].Kind.IsSequential() {
					if level[int(d)]+1 > l {
						l = level[int(d)] + 1
					}
				}
			}
			level[int(cid)] = l
			if l > worst {
				worst = l
			}
		}
		return worst
	}
	dr, dc := depth(ripple), depth(csel)
	t.Logf("logic depth: ripple %d, carry-select %d; cells: %d vs %d",
		dr, dc, len(ripple.Cells), len(csel.Cells))
	if dc >= dr {
		t.Errorf("carry-select depth %d not shorter than ripple %d", dc, dr)
	}
	if len(csel.Cells) <= len(ripple.Cells) {
		t.Errorf("carry-select should trade area for speed")
	}
}
