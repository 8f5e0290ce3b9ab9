package sim

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/cell"
	"repro/internal/demo"
	"repro/internal/netlist"
)

func TestAdderPipeline(t *testing.T) {
	nl := demo.Adder2()
	s := New(nl)
	// The adder is a 2-stage pipeline: inputs presented at cycle t appear
	// summed on o at cycle t+2.
	type vec struct{ a, b uint64 }
	seq := []vec{{1, 3}, {3, 0}, {3, 1}, {2, 2}, {0, 0}}
	var got []uint64
	for i := 0; i < len(seq)+2; i++ {
		if i < len(seq) {
			s.SetInput("a", seq[i].a)
			s.SetInput("b", seq[i].b)
		} else {
			s.SetInput("a", 0)
			s.SetInput("b", 0)
		}
		got = append(got, s.Output("o"))
		s.Step()
	}
	for i, v := range seq {
		want := (v.a + v.b) & 3
		if got[i+2] != want {
			t.Errorf("cycle %d: o = %d, want %d (a=%d b=%d)", i+2, got[i+2], want, v.a, v.b)
		}
	}
}

func TestAdderExhaustiveProperty(t *testing.T) {
	nl := demo.Adder2()
	s := New(nl)
	f := func(a, b uint8) bool {
		av, bv := uint64(a&3), uint64(b&3)
		s.Reset()
		s.SetInput("a", av)
		s.SetInput("b", bv)
		s.Step()
		s.Step()
		return s.Output("o") == (av+bv)&3
	}
	if err := quick.Check(f, &quick.Config{Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func TestSPProfileMatchesStimulus(t *testing.T) {
	nl := demo.Adder2()
	s := New(nl)
	s.EnableSP()
	// Drive a=3, b=3 forever: after the pipeline fills, aq/bq are all 1,
	// sum bits are 0 with carry 1.
	s.SetInput("a", 3)
	s.SetInput("b", 3)
	s.Run(1000)
	prof := s.Profile()
	get := func(name string) float64 { return prof.SP[nl.Cells[demo.CellIDByName(nl, name)].Out] }
	// DFF$1 (aq0) is 1 from cycle 1 on: SP ~ 1.
	if v := get("DFF$1"); v < 0.99 {
		t.Errorf("DFF$1 SP = %v, want ~1", v)
	}
	// XOR$5 = aq0^bq0 = 0 once filled.
	if v := get("XOR$5"); v > 0.01 {
		t.Errorf("XOR$5 SP = %v, want ~0", v)
	}
	// AND$6 = carry = 1 once filled.
	if v := get("AND$6"); v < 0.99 {
		t.Errorf("AND$6 SP = %v, want ~1", v)
	}
	// Clock root SP is 0.5 (free-running).
	if v := prof.SP[nl.ClockRoot]; v != 0.5 {
		t.Errorf("clk SP = %v, want 0.5", v)
	}
}

func TestClockGatingHoldsState(t *testing.T) {
	b := netlist.NewBuilder("gated")
	clk := b.Clock("clk")
	en := b.Input("en")
	g := b.Add(cell.CLKGATE, clk, en)
	d := b.Input("d")
	q := b.AddDFF(d, g, false)
	b.Output("q", q)
	nl := b.MustBuild()
	s := New(nl)

	s.SetInput("en", 1)
	s.SetInput("d", 1)
	s.Step()
	if s.Output("q") != 1 {
		t.Fatal("enabled DFF did not capture")
	}
	s.SetInput("en", 0)
	s.SetInput("d", 0)
	s.Step()
	if s.Output("q") != 1 {
		t.Fatal("gated DFF lost state")
	}
	s.SetInput("en", 1)
	s.Step()
	if s.Output("q") != 0 {
		t.Fatal("re-enabled DFF did not capture")
	}
}

func TestGatedClockSPIsZeroWhenOff(t *testing.T) {
	b := netlist.NewBuilder("gated")
	clk := b.Clock("clk")
	en := b.Input("en")
	g := b.Add(cell.CLKGATE, clk, en)
	d := b.Input("d")
	q := b.AddDFF(d, g, false)
	b.Output("q", q)
	nl := b.MustBuild()
	s := New(nl)
	s.EnableSP()
	s.SetInput("en", 0)
	s.Run(100)
	if v := s.Profile().SP[g]; v != 0 {
		t.Errorf("gated-off clock SP = %v, want 0", v)
	}
	// SP counters kept ticking (free-running counter clock): the enable
	// net itself was sampled for all 100 cycles.
	if c := s.Profile().Cycles; c != 100 {
		t.Errorf("SP sampled over %d cycles, want 100", c)
	}
	s.SetInput("en", 1)
	s.Run(100)
	if v := s.Profile().SP[g]; v < 0.24 || v > 0.26 {
		t.Errorf("half-enabled clock SP = %v, want ~0.25", v)
	}
}

func TestResetPreservesSPButClearsState(t *testing.T) {
	nl := demo.Adder2()
	s := New(nl)
	s.EnableSP()
	s.SetInput("a", 3)
	s.SetInput("b", 3)
	s.Run(10)
	s.Reset()
	if c := s.Profile().Cycles; c != 10 {
		t.Errorf("Reset left SP sampled over %d cycles, want the 10 before it", c)
	}
	if s.Output("o") != 0 {
		t.Error("Reset did not clear DFF state")
	}
	s.Run(4)
	if v := s.Profile().SP[nl.ClockRoot]; v != 0.5 {
		t.Errorf("clk SP across Reset = %v", v)
	}
}

func TestRandomizedAdderAgainstGolden(t *testing.T) {
	nl := demo.Adder2()
	s := New(nl)
	rng := rand.New(rand.NewSource(7))
	// Continuous random stimulus through the pipeline, checked with a
	// 2-deep software model of the same pipeline.
	type stage struct{ a, b uint64 }
	var pipe [2]stage
	for i := 0; i < 500; i++ {
		a, b := uint64(rng.Intn(4)), uint64(rng.Intn(4))
		s.SetInput("a", a)
		s.SetInput("b", b)
		if i >= 2 {
			want := (pipe[0].a + pipe[0].b) & 3
			if got := s.Output("o"); got != want {
				t.Fatalf("cycle %d: o=%d want %d", i, got, want)
			}
		}
		pipe[0] = pipe[1]
		pipe[1] = stage{a, b}
		s.Step()
	}
}

func TestSetInputBits(t *testing.T) {
	nl := demo.Adder2()
	s := New(nl)
	s.SetInputBits("a", []bool{true, false})
	s.SetInputBits("b", []bool{false, true})
	s.Step()
	s.Step()
	if got := s.Output("o"); got != 3 {
		t.Errorf("o = %d, want 3", got)
	}
}

func TestUnknownPortPanics(t *testing.T) {
	nl := demo.Adder2()
	s := New(nl)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for unknown port")
		}
	}()
	s.SetInput("nope", 1)
}

func TestVerilogRoundTripSimulates(t *testing.T) {
	// Export the demo adder, parse it back, and check cycle-for-cycle
	// functional equivalence under random stimulus.
	orig := demo.Adder2()
	back, err := netlist.ParseVerilog(orig.Verilog())
	if err != nil {
		t.Fatalf("ParseVerilog: %v", err)
	}
	so, sb := New(orig), New(back)
	rng := rand.New(rand.NewSource(33))
	for i := 0; i < 400; i++ {
		a, b := uint64(rng.Intn(4)), uint64(rng.Intn(4))
		so.SetInput("a", a)
		sb.SetInput("a", a)
		so.SetInput("b", b)
		sb.SetInput("b", b)
		if so.Output("o") != sb.Output("o") {
			t.Fatalf("cycle %d: parsed netlist diverged", i)
		}
		so.Step()
		sb.Step()
	}
}
