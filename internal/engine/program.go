// Package engine is the compiled evaluation core shared by every
// consumer that walks a netlist cycle by cycle: the functional simulator
// (internal/sim), the SP-profiling paths in internal/core, the
// failing-netlist replays of the test-quality experiments, and the CNF
// unroller of the bounded model checker (internal/bmc).
//
// Compile lowers a validated netlist.Netlist once into a Program: a
// dense, cache-friendly instruction stream in dependency (levelized
// topological) order with flattened input-net arrays, consecutive
// same-kind ops grouped into dispatch runs, and the sequential and
// clock-network structure precomputed (DFF list, clock-net membership).
// Two interpreters evaluate a Program:
//
//   - the scalar interpreter (scalar.go): one bool per net, preserving
//     the exact semantics — and byte-identical results — of the original
//     per-cell switch in internal/sim;
//   - the 64-lane packed interpreter (packed.go): one uint64 word per
//     net, each bit an independent stimulus stream, with SP residency
//     accumulated via popcount.
//
// Programs are immutable after Compile and safe to share read-only
// across the worker pool; Cached (cache.go) keys compiled programs by
// netlist identity so repeated replays of the same module skip
// re-lowering.
package engine

import (
	"fmt"

	"repro/internal/cell"
	"repro/internal/netlist"
)

// Op is one compiled combinational (or clock-network) cell evaluation.
// Inputs are flattened into a fixed-size array — netlist validation
// guarantees no cell exceeds cell.MaxArity inputs — so the interpreters
// never chase a per-cell slice header on the hot path.
type Op struct {
	Out  int32                // output net
	In   [cell.MaxArity]int32 // input nets; entries >= NIn are unused
	Cell int32                // originating netlist.CellID (for diagnostics/BMC)
	Kind cell.Kind
	NIn  uint8
}

// Run is a maximal span of consecutive same-kind ops in the instruction
// stream. The interpreters dispatch once per run instead of once per op.
type Run struct {
	Kind   cell.Kind
	Lo, Hi int32 // Ops[Lo:Hi]
}

// DFF is one precomputed flip-flop: the nets its edge update reads and
// writes, plus its reset value. The list replaces the full-cell scans
// the simulator and the BMC unroller used to do per cycle / per depth.
type DFF struct {
	D, Clk, Out int32
	Cell        int32 // originating netlist.CellID
	Init        bool
}

// Program is a compiled netlist. All fields are read-only after Compile.
type Program struct {
	Netlist *netlist.Netlist

	// Ops holds the combinational and clock cells in the netlist's
	// dependency (levelized topological) order: every op appears after
	// the ops driving its inputs. The order is exactly netlist.Topo()
	// order, so evaluation results — and the CNF variable-allocation
	// order in the BMC unroller — are identical to walking the raw
	// netlist.
	Ops  []Op
	Runs []Run

	// Level is the longest-path depth of each op (Ops index -> level).
	// Purely informational: it bounds the combinational depth and feeds
	// reports; evaluation relies only on the dependency order of Ops.
	Level []int32

	// DFFs lists every flip-flop in cell order.
	DFFs []DFF

	NumNets   int
	ClockRoot int32 // netlist.NoNet (-1) for pure-combinational modules

	// IsClockNet marks clock-network membership (the clock root plus
	// every clock-cell output) — the nets whose SP samples as 0.5 when
	// high (a running clock spends half of each period high).
	IsClockNet []bool

	// dataNets / clockNets partition [0, NumNets) for the packed SP
	// sampling loops (branch-free iteration per class).
	dataNets  []int32
	clockNets []int32
}

// Compile lowers a validated netlist into a Program. It panics on
// structural impossibilities (an input arity above cell.MaxArity) that
// netlist.Builder.Build already rejects — Compile accepting a netlist
// that the interpreters would silently mis-evaluate is never an option.
func Compile(nl *netlist.Netlist) *Program {
	p := &Program{
		Netlist:    nl,
		NumNets:    nl.NumNets,
		ClockRoot:  int32(nl.ClockRoot),
		IsClockNet: make([]bool, nl.NumNets),
	}

	// Instruction stream: the netlist's topological order, verbatim.
	topo := nl.Topo()
	p.Ops = make([]Op, len(topo))
	p.Level = make([]int32, len(topo))
	level := make([]int32, nl.NumNets) // net -> longest-path depth of its driver
	for i, cid := range topo {
		c := &nl.Cells[cid]
		if len(c.In) > cell.MaxArity {
			panic(fmt.Sprintf("engine: cell %s has %d inputs, engine supports at most %d (netlist bypassed Build validation)",
				c.Name, len(c.In), cell.MaxArity))
		}
		op := Op{Out: int32(c.Out), Cell: int32(cid), Kind: c.Kind, NIn: uint8(len(c.In))}
		var lvl int32
		for j, in := range c.In {
			op.In[j] = int32(in)
			if l := level[in]; l >= lvl {
				lvl = l + 1
			}
		}
		level[c.Out] = lvl
		p.Ops[i] = op
		p.Level[i] = lvl
	}

	// Kind-grouped dispatch runs over the unmodified order, counted first
	// so the slice is a single exact allocation — at million-op scale the
	// append-doubling copies, not the fills, used to dominate compile time.
	numRuns := 0
	for i := range p.Ops {
		if i == 0 || p.Ops[i].Kind != p.Ops[i-1].Kind {
			numRuns++
		}
	}
	p.Runs = make([]Run, 0, numRuns)
	for lo := 0; lo < len(p.Ops); {
		hi := lo + 1
		for hi < len(p.Ops) && p.Ops[hi].Kind == p.Ops[lo].Kind {
			hi++
		}
		p.Runs = append(p.Runs, Run{Kind: p.Ops[lo].Kind, Lo: int32(lo), Hi: int32(hi)})
		lo = hi
	}

	// Sequential and clock-network structure, same pre-counted shape.
	numDFFs := 0
	for i := range nl.Cells {
		if nl.Cells[i].Kind == cell.DFF {
			numDFFs++
		}
	}
	p.DFFs = make([]DFF, 0, numDFFs)
	if nl.ClockRoot != netlist.NoNet {
		p.IsClockNet[nl.ClockRoot] = true
	}
	for i := range nl.Cells {
		c := &nl.Cells[i]
		switch {
		case c.Kind == cell.DFF:
			p.DFFs = append(p.DFFs, DFF{
				D: int32(c.In[0]), Clk: int32(c.Clk), Out: int32(c.Out),
				Cell: int32(i), Init: c.Init,
			})
		case c.Kind.IsClock():
			p.IsClockNet[c.Out] = true
		}
	}
	numClock := 0
	for n := 0; n < p.NumNets; n++ {
		if p.IsClockNet[n] {
			numClock++
		}
	}
	p.clockNets = make([]int32, 0, numClock)
	p.dataNets = make([]int32, 0, p.NumNets-numClock)
	for n := 0; n < p.NumNets; n++ {
		if p.IsClockNet[n] {
			p.clockNets = append(p.clockNets, int32(n))
		} else {
			p.dataNets = append(p.dataNets, int32(n))
		}
	}
	return p
}

// Depth returns the maximum combinational level of the program (0 for a
// program with no combinational cells).
func (p *Program) Depth() int {
	d := int32(0)
	for _, l := range p.Level {
		if l > d {
			d = l
		}
	}
	return int(d)
}

// Stats renders a one-line program summary for reports and cmds.
func (p *Program) Stats() string {
	return fmt.Sprintf("%d ops in %d runs (depth %d), %d DFFs, %d nets (%d clock)",
		len(p.Ops), len(p.Runs), p.Depth(), len(p.DFFs), p.NumNets, len(p.clockNets))
}
