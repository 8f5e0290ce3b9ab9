// Package engine is the compiled evaluation core shared by every
// consumer that walks a netlist cycle by cycle: the unit driver
// (internal/module), the SP-profiling paths in internal/core, trace
// replay (bmc.Replay), the fault waves of internal/inject, and the CNF
// unroller of the bounded model checker (internal/bmc).
//
// Compile lowers a validated netlist.Netlist once into a Program: a
// dense, cache-friendly instruction stream in level-major, kind-grouped
// dependency order with flattened input-net arrays, consecutive
// same-kind ops grouped into dispatch runs, and the sequential and
// clock-network structure precomputed (DFF list, clock-net membership).
// One interpreter evaluates a Program: the 64-lane packed one
// (packed.go), one uint64 word per net, each bit an independent
// stimulus stream, with SP residency accumulated via popcount;
// FaultedPacked (faulted.go) runs the same kernels under fault
// overlays. A single run is lane 0. The scalar reference the kernels
// are held to, one bool per net, is internal/sim, which only tests
// drive.
//
// Programs are immutable after Compile and safe to share read-only
// across the worker pool; Cached (cache.go) keys compiled programs by
// netlist identity so repeated replays of the same module skip
// re-lowering.
package engine

import (
	"fmt"
	"sync"

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

	// Ops holds the combinational and clock cells level-major and
	// kind-grouped: by longest-path level, within a level by kind, and
	// within a (level, kind) bucket in netlist.Topo() order. Every op
	// appears after the ops driving its inputs, so settled values equal
	// those of walking the raw netlist.
	Ops  []Op
	Runs []Run

	// Level is the longest-path depth of each op (Ops index -> level),
	// non-decreasing along Ops.
	Level []int32

	// Topo maps netlist.Topo() position to Ops index: walking Ops through
	// it visits the cells in the netlist's own order, the order the BMC
	// unroller allocates CNF variables in.
	Topo []int32

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

	// feeds is what a FaultedPacked's gated settle needs, built on its
	// first use: Compile never pays for it.
	feedsOnce sync.Once
	feeds     *feedTable
}

// feedTable maps every net to the change flag that covers it and lists
// the runs that read each flag. Flag r is run r's "an output word
// changed in this settle"; flag len(Runs)+k is state net k's "written
// with a different word since the last settle". A FaultedPacked marks a
// raised flag's readers in its bitset of pending runs, run r at bit r%64
// of word r/64.
type feedTable struct {
	// slot is the flag of each net: its driving run's index, or
	// len(Runs)+k for state[k].
	slot []int32
	// state lists, ascending, the nets no op drives: port bits, flip-flop
	// outputs, the clock root, and any net nothing drives at all. Settled
	// values are a function of these alone, so they are all a snapshot
	// holds.
	state []int32
	// readers[f] selects the runs that read flag f, less the run f itself:
	// a bitset word and the mask of those runs in it, per word they fall
	// in, ascending. Runs are in dependency order, so every reader of run
	// r's flag comes after r.
	readers [][]runSet
}

// runSet is a set of runs within one word of a pending-run bitset.
type runSet struct {
	word int32
	mask uint64
}

// feedTable returns p's gated-settle tables, building them once.
func (p *Program) feedTable() *feedTable {
	p.feedsOnce.Do(func() {
		t := &feedTable{slot: make([]int32, p.NumNets)}
		for n := range t.slot {
			t.slot[n] = -1
		}
		for r, run := range p.Runs {
			for _, op := range p.Ops[run.Lo:run.Hi] {
				t.slot[op.Out] = int32(r)
			}
		}
		for n, s := range t.slot {
			if s < 0 {
				t.slot[n] = int32(len(p.Runs) + len(t.state))
				t.state = append(t.state, int32(n))
			}
		}
		t.readers = make([][]runSet, len(p.Runs)+len(t.state))
		for r, run := range p.Runs {
			w, bit := int32(r/64), uint64(1)<<uint(r%64)
			for _, op := range p.Ops[run.Lo:run.Hi] {
				for _, in := range op.In[:op.NIn] {
					s := t.slot[in]
					if s == int32(r) {
						continue
					}
					rs := t.readers[s]
					if len(rs) == 0 || rs[len(rs)-1].word != w {
						rs = append(rs, runSet{word: w})
					}
					rs[len(rs)-1].mask |= bit
					t.readers[s] = rs
				}
			}
		}
		p.feeds = t
	})
	return p.feeds
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

	// Levels first: an op's level is one past the deepest of its inputs,
	// where ports, flip-flop outputs and constants sit at level 0 — so it
	// is also the level of the net it drives. Each op's (level, kind)
	// bucket is parked in Topo until the sort below replaces it.
	const nk = int32(cell.NumKinds)
	topo := nl.Topo()
	p.Topo = make([]int32, len(topo))
	level := make([]int32, nl.NumNets)
	var depth int32
	for i, cid := range topo {
		c := &nl.Cells[cid]
		if len(c.In) > cell.MaxArity {
			panic(fmt.Sprintf("engine: cell %s has %d inputs, engine supports at most %d (netlist bypassed Build validation)",
				c.Name, len(c.In), cell.MaxArity))
		}
		var lvl int32
		for _, in := range c.In {
			if l := level[in]; l >= lvl {
				lvl = l + 1
			}
		}
		level[c.Out] = lvl
		depth = max(depth, lvl)
		p.Topo[i] = lvl*nk + int32(c.Kind)
	}

	// Instruction stream: a stable counting sort of the topological order
	// by (level, kind). Every input of a level-L op is driven below L, so
	// the order is still a dependency order, and grouping a level's ops
	// by kind turns thousands of alternating-kind runs into a few per
	// level. Topo ends up mapping each topological position to its op,
	// the way back for consumers that need the netlist's own order.
	next := make([]int32, (depth+1)*nk+1) // bucket -> next free op slot
	for _, b := range p.Topo {
		next[b+1]++
	}
	for b := 1; b < len(next); b++ {
		next[b] += next[b-1]
	}
	p.Ops = make([]Op, len(topo))
	p.Level = make([]int32, len(topo))
	for i, cid := range topo {
		c := &nl.Cells[cid]
		b := p.Topo[i]
		k := next[b]
		next[b]++
		op := Op{Out: int32(c.Out), Cell: int32(cid), Kind: c.Kind, NIn: uint8(len(c.In))}
		for j, in := range c.In {
			op.In[j] = int32(in)
		}
		p.Ops[k] = op
		p.Level[k] = b / nk
		p.Topo[i] = k
	}

	// Maximal same-kind dispatch runs, counted first so the slice is a
	// single exact allocation — at million-op scale the append-doubling
	// copies, not the fills, used to dominate compile time.
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
