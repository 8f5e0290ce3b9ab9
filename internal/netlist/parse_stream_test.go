package netlist

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"strings"
	"testing"

	"repro/internal/cell"
)

// gateZoo builds a netlist exercising every cell kind and both clock-cell
// comment markers.
func gateZoo(t *testing.T) *Netlist {
	t.Helper()
	b := NewBuilder("zoo")
	clk := b.Clock("clk")
	x := b.Input("x")
	y := b.Input("y")
	s := b.Input("s")
	cb := b.Add(cell.CLKBUF, clk)
	g := b.Add(cell.CLKGATE, cb, s)
	outs := Bus{
		b.Add(cell.AND2, x, y), b.Add(cell.OR2, x, y), b.Add(cell.XOR2, x, y),
		b.Add(cell.NAND2, x, y), b.Add(cell.NOR2, x, y), b.Add(cell.XNOR2, x, y),
		b.Add(cell.INV, x), b.Add(cell.BUF, y),
		b.Add(cell.MUX2, x, y, s),
		b.Add(cell.AOI21, x, y, s), b.Add(cell.OAI21, x, y, s),
		b.Add(cell.TIE0), b.Add(cell.TIE1),
		b.AddDFFNamed("st", x, g, true),
	}
	b.OutputBus("o", outs)
	return b.MustBuild()
}

// signature captures everything parse-order-sensitive about a netlist.
func signature(nl *Netlist) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s nets=%d clk=%d\n", nl.Name, nl.NumNets, nl.ClockRoot)
	for _, c := range nl.Cells {
		fmt.Fprintf(&sb, "%v %s in=%v clk=%d out=%d init=%v\n", c.Kind, c.Name, c.In, c.Clk, c.Out, c.Init)
	}
	for _, p := range nl.Inputs {
		fmt.Fprintf(&sb, "in %s %v\n", p.Name, p.Bits)
	}
	for _, p := range nl.Outputs {
		fmt.Fprintf(&sb, "out %s %v\n", p.Name, p.Bits)
	}
	return sb.String()
}

// badSources are modules the importer must reject, one malformed
// construct each.
var badSources = []string{
	"module x (a);\nassign n[0] = n[1] & n[2] & n[3];\nendmodule\n",
	"module x (a);\nassign n[0] = n[1] | n[2] ^ n[3];\nendmodule\n",
	"module x (a);\nassign n[0] = ~(n[1] @ n[2]);\nendmodule\n",
	"module x (a);\nassign n[0] = ~((n[1]&n[2])|x);\nendmodule\n",
	"module x (a);\nassign n[0] = n[1] ? wat : n[2];\nendmodule\n",
	"module x (a);\nassign n[0] = ~zzz;\nendmodule\n",
	"module x (a);\nwat;\nendmodule\n",
	"module x (a);\nassign wat = n[0];\nendmodule\n",
	"module x (a);\ninput wire [99999:0] a;\nendmodule\n",
}

// TestParseDeterminism is the regression test for the old map-ranged
// operator matching: parse results and error messages must be stable
// across repeated runs (map iteration order used to make both flicker).
func TestParseDeterminism(t *testing.T) {
	src := gateZoo(t).Verilog()
	want := ""
	for i := 0; i < 50; i++ {
		nl, err := ParseVerilog(src)
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		sig := signature(nl)
		if i == 0 {
			want = sig
		} else if sig != want {
			t.Fatalf("run %d: parse result differs from run 0:\n%s\nvs\n%s", i, sig, want)
		}
	}

	for _, src := range badSources {
		_, err := ParseVerilog(src)
		if err == nil {
			t.Errorf("accepted %q", src)
			continue
		}
		for i := 0; i < 20; i++ {
			_, err2 := ParseVerilog(src)
			if err2 == nil || err2.Error() != err.Error() {
				t.Fatalf("error message unstable for %q:\n%v\nvs\n%v", src, err, err2)
			}
		}
	}
}

// TestParseVerilogReader checks the streaming entry point against the
// string one, including under adversarially small reads.
func TestParseVerilogReader(t *testing.T) {
	nl := gateZoo(t)
	src := nl.Verilog()
	want := signature(mustParse(t, src))

	chunked := &chunkReader{data: []byte(src), chunk: 7}
	got, err := ParseVerilogReader(chunked)
	if err != nil {
		t.Fatalf("ParseVerilogReader: %v", err)
	}
	if signature(got) != want {
		t.Error("streaming parse differs from string parse")
	}
}

func mustParse(t *testing.T, src string) *Netlist {
	t.Helper()
	nl, err := ParseVerilog(src)
	if err != nil {
		t.Fatalf("ParseVerilog: %v", err)
	}
	return nl
}

type chunkReader struct {
	data  []byte
	chunk int
}

func (r *chunkReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, io.EOF
	}
	n := r.chunk
	if n > len(r.data) {
		n = len(r.data)
	}
	n = copy(p[:min(n, len(p))], r.data)
	r.data = r.data[n:]
	return n, nil
}

// TestWriteVerilogMatchesVerilog pins the streaming exporter to the
// string exporter byte for byte.
func TestWriteVerilogMatchesVerilog(t *testing.T) {
	nl := gateZoo(t)
	var buf bytes.Buffer
	if err := nl.WriteVerilog(&buf); err != nil {
		t.Fatalf("WriteVerilog: %v", err)
	}
	if buf.String() != nl.Verilog() {
		t.Error("WriteVerilog and Verilog outputs differ")
	}
}

// TestParseAllocsLinear guards the parse hot path: an import allocates
// a bounded number of tables, not objects per cell. The string reader
// reports its length, so the cell, pin and net tables are reserved once;
// instance names are stored in a few large blocks; no line leaves
// garbage. What remains is per port bit and per table.
func TestParseAllocsLinear(t *testing.T) {
	b := NewBuilder("wide")
	clk := b.Clock("clk")
	x := b.Input("x")
	y := b.Input("y")
	prev := b.Add(cell.XOR2, x, y)
	for i := 0; i < 4000; i++ {
		prev = b.Add(cell.Kind(int(cell.AND2)+i%6), prev, x)
	}
	q := b.AddDFF(prev, clk, false)
	b.Output("o", q)
	nl := b.MustBuild()
	src := nl.Verilog()

	per := testing.AllocsPerRun(5, func() {
		if _, err := ParseVerilog(src); err != nil {
			t.Fatal(err)
		}
	})
	cells := float64(len(nl.Cells))
	if perCell := per / cells; perCell > 0.05 {
		t.Errorf("parse allocates %.3f allocs/cell (%.0f total for %.0f cells); want <= 0.05",
			perCell, per, cells)
	}
}

// TestParseReservationBoundedByInput: the flat wire declaration may
// claim four million nets, but what the import reserves is bounded by
// the bytes actually supplied, so a short source costs a short source's
// memory whatever it declares.
func TestParseReservationBoundedByInput(t *testing.T) {
	for _, k := range []int{10, 100, 1000} {
		var sb strings.Builder
		sb.WriteString("module m (clk, a, o);\n  input wire clk;\n  input wire [0:0] a;\n  output wire [0:0] o;\n")
		sb.WriteString("  wire [4194303:0] n;\n  assign n[0] = a[0];\n")
		for i := 0; i < k; i++ {
			fmt.Fprintf(&sb, "  assign n[%d] = ~n[%d];\n", i+1, i)
		}
		fmt.Fprintf(&sb, "  assign o[0] = n[%d];\nendmodule\n", k)
		src := sb.String()

		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		nl, err := ParseVerilog(src)
		runtime.ReadMemStats(&m1)
		if err != nil {
			t.Fatal(err)
		}
		if len(nl.Cells) != k {
			t.Fatalf("%d cells, want %d", len(nl.Cells), k)
		}
		// The constant term: the line scanner's 64 KiB buffer, the
		// builder's first pin slab (arenaChunk NetIDs), and 64 KiB for
		// the port tables and the first name block.
		got := m1.TotalAlloc - m0.TotalAlloc
		if limit := uint64(16*len(src) + 64<<10 + 4*arenaChunk + 64<<10); got > limit {
			t.Errorf("k=%d: importing %d bytes allocated %d bytes, want <= %d", k, len(src), got, limit)
		}
	}
}
