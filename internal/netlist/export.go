package netlist

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/cell"
)

// Verilog renders the netlist as a structural Verilog-2001 module. The
// output is what the paper calls a "failing netlist" deliverable when the
// netlist carries an instrumented failure model: a simulatable,
// synthesizable gate-level description.
func (nl *Netlist) Verilog() string {
	var b strings.Builder
	if err := nl.WriteVerilog(&b); err != nil {
		// strings.Builder writes cannot fail.
		panic(err)
	}
	return b.String()
}

// WriteVerilog is the streaming form of Verilog: it emits the module
// straight to w without materializing the whole text, so a million-cell
// netlist exports in one buffered pass with constant memory.
func (nl *Netlist) WriteVerilog(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 64*1024)
	bw.WriteString("module ")
	bw.WriteString(sanitize(nl.Name))
	bw.WriteString(" (")
	first := true
	port := func(name string) {
		if !first {
			bw.WriteString(", ")
		}
		first = false
		bw.WriteString(name)
	}
	if nl.ClockRoot != NoNet {
		port(nl.NetName(nl.ClockRoot))
	}
	for _, p := range nl.Inputs {
		port(p.Name)
	}
	for _, p := range nl.Outputs {
		port(p.Name)
	}
	bw.WriteString(");\n")
	if nl.ClockRoot != NoNet {
		fmt.Fprintf(bw, "  input wire %s;\n", nl.NetName(nl.ClockRoot))
	}
	for _, p := range nl.Inputs {
		fmt.Fprintf(bw, "  input wire [%d:0] %s;\n", len(p.Bits)-1, p.Name)
	}
	for _, p := range nl.Outputs {
		fmt.Fprintf(bw, "  output wire [%d:0] %s;\n", len(p.Bits)-1, p.Name)
	}
	if nl.NumNets > 0 {
		fmt.Fprintf(bw, "  wire [%d:0] n;\n", nl.NumNets-1)
	}
	// Tie port nets to the flat wire vector.
	if nl.ClockRoot != NoNet {
		fmt.Fprintf(bw, "  assign n[%d] = %s;\n", nl.ClockRoot, nl.NetName(nl.ClockRoot))
	}
	for _, p := range nl.Inputs {
		for i, net := range p.Bits {
			fmt.Fprintf(bw, "  assign n[%d] = %s[%d];\n", net, p.Name, i)
		}
	}
	for _, p := range nl.Outputs {
		for i, net := range p.Bits {
			fmt.Fprintf(bw, "  assign %s[%d] = n[%d];\n", p.Name, i, net)
		}
	}
	var scratch []byte
	for i := range nl.Cells {
		bw.WriteString("  ")
		scratch = writeCellVerilog(bw, &nl.Cells[i], scratch)
		bw.WriteByte('\n')
	}
	bw.WriteString("endmodule\n")
	return bw.Flush()
}

func sanitize(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			return r
		default:
			return '_'
		}
	}, s)
}

// writeCellVerilog emits one cell line without per-cell allocation (the
// scratch buffer is threaded through for net-reference formatting). The
// textual forms are load-bearing: ParseVerilog matches them exactly, and
// the round-trip fuzz contract requires a textual fixed point.
func writeCellVerilog(bw *bufio.Writer, c *Cell, scratch []byte) []byte {
	n := func(id NetID) {
		scratch = append(scratch[:0], 'n', '[')
		scratch = strconv.AppendInt(scratch, int64(id), 10)
		scratch = append(scratch, ']')
		bw.Write(scratch)
	}
	binary := func(op string) {
		bw.WriteString("assign ")
		n(c.Out)
		bw.WriteString(" = ")
		n(c.In[0])
		bw.WriteString(op)
		n(c.In[1])
	}
	negBinary := func(op string) {
		bw.WriteString("assign ")
		n(c.Out)
		bw.WriteString(" = ~(")
		n(c.In[0])
		bw.WriteString(op)
		n(c.In[1])
		bw.WriteString(")")
	}
	comment := func(prefix string) {
		bw.WriteString("; // ")
		bw.WriteString(prefix)
		bw.WriteString(c.Name)
	}
	switch c.Kind {
	case cell.TIE0:
		bw.WriteString("assign ")
		n(c.Out)
		bw.WriteString(" = 1'b0")
		comment("")
	case cell.TIE1:
		bw.WriteString("assign ")
		n(c.Out)
		bw.WriteString(" = 1'b1")
		comment("")
	case cell.BUF, cell.CLKBUF:
		bw.WriteString("assign ")
		n(c.Out)
		bw.WriteString(" = ")
		n(c.In[0])
		if c.Kind == cell.CLKBUF {
			comment("clkbuf ")
		} else {
			comment("")
		}
	case cell.INV:
		bw.WriteString("assign ")
		n(c.Out)
		bw.WriteString(" = ~")
		n(c.In[0])
		comment("")
	case cell.AND2:
		binary(" & ")
		comment("")
	case cell.OR2:
		binary(" | ")
		comment("")
	case cell.XOR2:
		binary(" ^ ")
		comment("")
	case cell.NAND2:
		negBinary(" & ")
		comment("")
	case cell.NOR2:
		negBinary(" | ")
		comment("")
	case cell.XNOR2:
		negBinary(" ^ ")
		comment("")
	case cell.MUX2:
		bw.WriteString("assign ")
		n(c.Out)
		bw.WriteString(" = ")
		n(c.In[2])
		bw.WriteString(" ? ")
		n(c.In[1])
		bw.WriteString(" : ")
		n(c.In[0])
		comment("")
	case cell.AOI21:
		bw.WriteString("assign ")
		n(c.Out)
		bw.WriteString(" = ~((")
		n(c.In[0])
		bw.WriteString(" & ")
		n(c.In[1])
		bw.WriteString(") | ")
		n(c.In[2])
		bw.WriteString(")")
		comment("")
	case cell.CLKGATE:
		binary(" & ")
		comment("clkgate ")
	case cell.OAI21:
		bw.WriteString("assign ")
		n(c.Out)
		bw.WriteString(" = ~((")
		n(c.In[0])
		bw.WriteString(" | ")
		n(c.In[1])
		bw.WriteString(") & ")
		n(c.In[2])
		bw.WriteString(")")
		comment("")
	case cell.DFF:
		bw.WriteString("dff #(.INIT(1'b")
		if c.Init {
			bw.WriteByte('1')
		} else {
			bw.WriteByte('0')
		}
		bw.WriteString(")) ")
		bw.WriteString(sanitize(c.Name))
		bw.WriteString(" (.clk(")
		n(c.Clk)
		bw.WriteString("), .d(")
		n(c.In[0])
		bw.WriteString("), .q(")
		n(c.Out)
		bw.WriteString("));")
	default:
		bw.WriteString("// unknown cell ")
		bw.WriteString(c.Name)
	}
	return scratch
}
