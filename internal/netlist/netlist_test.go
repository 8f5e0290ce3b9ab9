package netlist

import (
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/cell"
)

// buildDemoAdder replicates the Figure 3 adder locally (the demo package
// depends on netlist, so tests here cannot import it).
func buildDemoAdder(t *testing.T) *Netlist {
	t.Helper()
	b := NewBuilder("adder")
	clk := b.Clock("clk")
	a := b.InputBus("a", 2)
	bb := b.InputBus("b", 2)
	aq0 := b.AddDFFNamed("DFF$1", a[0], clk, false)
	bq0 := b.AddDFFNamed("DFF$2", bb[0], clk, false)
	aq1 := b.AddDFFNamed("DFF$3", a[1], clk, false)
	bq1 := b.AddDFFNamed("DFF$4", bb[1], clk, false)
	s0 := b.AddNamed(cell.XOR2, "XOR$5", aq0, bq0)
	c0 := b.AddNamed(cell.AND2, "AND$6", aq0, bq0)
	x1 := b.AddNamed(cell.XOR2, "XOR$7", aq1, bq1)
	s1 := b.AddNamed(cell.XOR2, "XOR$8", x1, c0)
	o0 := b.AddDFFNamed("DFF$9", s0, clk, false)
	o1 := b.AddDFFNamed("DFF$10", s1, clk, false)
	b.OutputBus("o", Bus{o0, o1})
	nl, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return nl
}

// TestCellSize pins Cell at 56 bytes on 64-bit platforms. A parsed
// netlist holds one per cell, so on the million-gate core each 8 bytes
// are 8 MB of live heap. Kind and Init share one word of padding only
// while they sit next to each other.
func TestCellSize(t *testing.T) {
	if strconv.IntSize != 64 {
		t.Skip("the pinned size is the 64-bit layout")
	}
	if got := reflect.TypeOf(Cell{}).Size(); got != 56 {
		t.Errorf("Cell is %d bytes, want 56", got)
	}
}

func TestBuildAdder(t *testing.T) {
	nl := buildDemoAdder(t)
	st := nl.Stats()
	if st.DFFs != 6 || st.Comb != 4 {
		t.Fatalf("stats = %+v, want 6 DFFs and 4 comb cells", st)
	}
	if len(nl.Topo()) != 4 {
		t.Fatalf("topo has %d cells, want 4", len(nl.Topo()))
	}
	// XOR$8 must come after XOR$7 and AND$6 in topological order.
	pos := map[string]int{}
	for i, cid := range nl.Topo() {
		pos[nl.Cells[cid].Name] = i
	}
	if pos["XOR$8"] < pos["XOR$7"] || pos["XOR$8"] < pos["AND$6"] {
		t.Errorf("topo order wrong: %v", pos)
	}
}

func TestDriverAndNames(t *testing.T) {
	nl := buildDemoAdder(t)
	in, ok := nl.FindInput("a")
	if !ok || len(in.Bits) != 2 {
		t.Fatal("input a missing")
	}
	if nl.Driver(in.Bits[0]) != NoCell {
		t.Error("primary input has a driver")
	}
	out, ok := nl.FindOutput("o")
	if !ok {
		t.Fatal("output o missing")
	}
	d := nl.Driver(out.Bits[1])
	if d == NoCell || nl.Cells[d].Name != "DFF$10" {
		t.Errorf("o[1] driver = %v, want DFF$10", d)
	}
	if got := nl.NetName(out.Bits[0]); got != "o[0]" {
		t.Errorf("NetName(o[0]) = %q", got)
	}
}

func TestMultipleDriversRejected(t *testing.T) {
	b := NewBuilder("bad")
	x := b.Input("x")
	y := b.Add(cell.INV, x)
	b.cells = append(b.cells, Cell{Kind: cell.BUF, Name: "dup", In: []NetID{x}, Clk: NoNet, Out: y})
	b.Output("y", y)
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "multiply driven") {
		t.Fatalf("want multiply-driven error, got %v", err)
	}
}

func TestUndrivenNetRejected(t *testing.T) {
	b := NewBuilder("bad")
	x := b.Input("x")
	dangling := b.Net()
	y := b.Add(cell.AND2, x, dangling)
	b.Output("y", y)
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "never driven") {
		t.Fatalf("want undriven error, got %v", err)
	}
}

func TestCombinationalLoopRejected(t *testing.T) {
	b := NewBuilder("loop")
	x := b.Input("x")
	fb := b.Net()
	y := b.Add(cell.AND2, x, fb)
	z := b.Add(cell.OR2, y, x)
	// Close the loop by forcing cell z's output to feed the AND input.
	b.cells[0].In[1] = z
	_ = fb
	b.Output("y", y)
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "cycle") {
		// fb is now undriven; rewire cleanly instead.
		t.Fatalf("want cycle error, got %v", err)
	}
}

func TestWrongArityRejected(t *testing.T) {
	b := NewBuilder("bad")
	x := b.Input("x")
	b.Add(cell.AND2, x) // one input to a 2-input gate
	if _, err := b.Build(); err == nil {
		t.Fatal("want arity error")
	}
}

// TestOversizedFanInRejected proves Build rejects cells whose fan-in
// exceeds the evaluation engine's cell.MaxArity cap. The old simulator
// silently truncated such cells at its settle buffer (`var inBuf
// [3]bool`); now they cannot reach any evaluator at all. AddRaw is the
// only constructor that skips per-kind arity checks, so it is the route
// an oversized cell could have slipped through.
func TestOversizedFanInRejected(t *testing.T) {
	b := NewBuilder("bad")
	ins := make([]NetID, cell.MaxArity+1)
	for i := range ins {
		ins[i] = b.Input(fmt.Sprintf("x%d", i))
	}
	y := b.Net()
	b.AddRaw(cell.AND2, "wide", ins, NoNet, y, false)
	b.Output("y", y)
	_, err := b.Build()
	if err == nil || !strings.Contains(err.Error(), "at most") {
		t.Fatalf("want engine-arity error, got %v", err)
	}
	if !strings.Contains(err.Error(), "wide") {
		t.Errorf("error should name the offending cell: %v", err)
	}
}

func TestCloneIsIndependent(t *testing.T) {
	nl := buildDemoAdder(t)
	cp := nl.Clone()
	cp.Cells[0].Name = "mutated"
	cp.Cells[4].In[0] = 0
	if nl.Cells[0].Name == "mutated" {
		t.Error("clone shares cell slice")
	}
	if nl.Cells[4].In[0] == 0 && cp.Cells[4].In[0] == 0 && &nl.Cells[4].In[0] == &cp.Cells[4].In[0] {
		t.Error("clone shares input slices")
	}
}

// TestMemo pins the slot rules engine.Cached and sta.CachedGraph stand
// on: one build per (netlist, key), keys of different types do not
// collide, and a clone starts empty.
func TestMemo(t *testing.T) {
	type keyA struct{}
	type keyB struct{}
	nl := buildDemoAdder(t)
	builds := 0
	build := func(v string) func() any {
		return func() any { builds++; return v }
	}
	for _, c := range []struct {
		nl    *Netlist
		key   any
		build string
		want  string
		built bool
	}{
		{nl, keyA{}, "a", "a", true},
		{nl, keyA{}, "a again", "a", false},
		{nl, keyB{}, "b", "b", true},
		{nl.Clone(), keyA{}, "clone", "clone", true},
	} {
		if got, built := c.nl.Memo(c.key, build(c.build)); got != c.want || built != c.built {
			t.Errorf("Memo(%T, build %q) = %v, built %v; want %v, %v", c.key, c.build, got, built, c.want, c.built)
		}
	}
	if builds != 3 {
		t.Errorf("%d builds, want 3", builds)
	}
}

func TestNewBuilderFromPreservesIDs(t *testing.T) {
	nl := buildDemoAdder(t)
	b := NewBuilderFrom(nl)
	// Add an inverter on o[0]'s driver output, re-expose outputs.
	out, _ := nl.FindOutput("o")
	inv := b.Add(cell.INV, out.Bits[0])
	b.OutputBus("o", Bus{out.Bits[0], out.Bits[1]})
	b.Output("o0_inv", inv)
	nl2, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if nl2.NumNets <= nl.NumNets {
		t.Error("extension did not allocate new nets")
	}
	if len(nl2.Cells) != len(nl.Cells)+1 {
		t.Errorf("cells = %d, want %d", len(nl2.Cells), len(nl.Cells)+1)
	}
	// Original cells keep their IDs and names.
	for i := range nl.Cells {
		if nl2.Cells[i].Name != nl.Cells[i].Name {
			t.Fatalf("cell %d renamed: %s vs %s", i, nl2.Cells[i].Name, nl.Cells[i].Name)
		}
	}
}

func TestVerilogExport(t *testing.T) {
	nl := buildDemoAdder(t)
	v := nl.Verilog()
	for _, want := range []string{"module adder", "input wire [1:0] a", "output wire [1:0] o", "dff", "endmodule"} {
		if !strings.Contains(v, want) {
			t.Errorf("Verilog output missing %q:\n%s", want, v)
		}
	}
}

func TestReaders(t *testing.T) {
	nl := buildDemoAdder(t)
	readers := nl.Readers()
	// aq0 (DFF$1 out) is read by XOR$5 and AND$6.
	var dff1 CellID
	for i, c := range nl.Cells {
		if c.Name == "DFF$1" {
			dff1 = CellID(i)
		}
	}
	if got := len(readers[nl.Cells[dff1].Out]); got != 2 {
		t.Errorf("aq0 has %d readers, want 2", got)
	}
	// The clock is read by all 6 DFFs.
	if got := len(readers[nl.ClockRoot]); got != 6 {
		t.Errorf("clk has %d readers, want 6", got)
	}
}
