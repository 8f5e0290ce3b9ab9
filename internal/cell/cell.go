// Package cell defines the standard cell library used by every netlist in
// this repository. It is the Go stand-in for the 28nm foundry library the
// paper synthesizes into: each kind carries a logic function and nominal
// timing data (min/max propagation delay, and setup/hold/clk-to-q for
// flip-flops). The aging package perturbs these nominal delays as a
// function of signal probability and lifetime.
package cell

import "fmt"

// Kind identifies a standard cell type.
type Kind uint8

// The library. Combinational cells compute a single output from 0-3
// inputs. DFF is the sole sequential element. CLKBUF and CLKGATE are
// clock-network cells: they carry the clock-enable signal in functional
// simulation and contribute delay (and aged skew) in timing analysis.
const (
	TIE0    Kind = iota // constant 0, no inputs
	TIE1                // constant 1, no inputs
	BUF                 // Y = A
	INV                 // Y = !A
	AND2                // Y = A & B
	OR2                 // Y = A | B
	NAND2               // Y = !(A & B)
	NOR2                // Y = !(A | B)
	XOR2                // Y = A ^ B
	XNOR2               // Y = !(A ^ B)
	MUX2                // Y = S ? B : A   (inputs A, B, S)
	AOI21               // Y = !((A & B) | C)
	OAI21               // Y = !((A | B) & C)
	DFF                 // Q <= D on rising clock edge (when clock enabled)
	CLKBUF              // clock buffer: passes the clock
	CLKGATE             // gated clock: clock & enable (inputs CLK, EN)
	numKinds
)

// NumKinds reports the number of cell kinds in the library.
const NumKinds = int(numKinds)

// MaxArity is the largest data fan-in of any cell in the library. The
// evaluation engine (internal/engine) flattens every cell's input list
// into a fixed-width array of this size, and netlist validation rejects
// cells that exceed it, so the engine can never silently drop an input.
const MaxArity = 3

var names = [...]string{
	TIE0: "TIE0", TIE1: "TIE1", BUF: "BUF", INV: "INV",
	AND2: "AND2", OR2: "OR2", NAND2: "NAND2", NOR2: "NOR2",
	XOR2: "XOR2", XNOR2: "XNOR2", MUX2: "MUX2",
	AOI21: "AOI21", OAI21: "OAI21",
	DFF: "DFF", CLKBUF: "CLKBUF", CLKGATE: "CLKGATE",
}

func (k Kind) String() string {
	if int(k) < len(names) {
		return names[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// NumInputs reports how many data inputs a cell of kind k has. For DFF
// this counts only the D pin (the clock pin is tracked separately); for
// CLKGATE it counts the enable pin (the clock pin is separate as well).
func (k Kind) NumInputs() int {
	switch k {
	case TIE0, TIE1:
		return 0
	case BUF, INV, DFF, CLKBUF:
		return 1
	case AND2, OR2, NAND2, NOR2, XOR2, XNOR2, CLKGATE:
		return 2
	case MUX2, AOI21, OAI21:
		return 3
	}
	panic("cell: unknown kind " + k.String())
}

// IsSequential reports whether k is a flip-flop.
func (k Kind) IsSequential() bool { return k == DFF }

// IsClock reports whether k is a clock-network cell.
func (k Kind) IsClock() bool { return k == CLKBUF || k == CLKGATE }
