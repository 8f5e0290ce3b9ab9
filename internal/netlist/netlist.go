// Package netlist provides the gate-level netlist representation shared by
// every phase of the workflow: a directed graph of standard cells (see
// internal/cell) connected by nets, with named port buses and an explicit
// clock network. It is the Go equivalent of the synthesized, post
// place-and-route netlist that the paper's toolchain produces.
package netlist

import (
	"fmt"
	"sync"

	"repro/internal/cell"
)

// NetID identifies a single-bit net. Nets are dense indices starting at 0.
type NetID int32

// CellID identifies a cell instance within one netlist.
type CellID int32

// NoNet marks an unconnected optional pin (e.g. the Clk pin of a
// combinational cell).
const NoNet NetID = -1

// NoCell marks the absence of a driving cell (primary inputs, clock root).
const NoCell CellID = -1

// Bus is an ordered group of nets; index 0 is the least-significant bit.
type Bus []NetID

// Cell is one instantiated standard cell. For clock cells the clock input
// is In[0] (and EN is In[1] for CLKGATE). For DFF cells In[0] is the D pin
// and Clk is the clock net; Init is the value Q takes at reset.
type Cell struct {
	Kind cell.Kind
	Name string
	In   []NetID
	Clk  NetID // DFF only; NoNet otherwise
	Out  NetID
	Init bool // DFF only: reset value of Q
}

// Port is a named bus on the module boundary.
type Port struct {
	Name string
	Bits Bus
}

// Netlist is an immutable, validated gate-level module. Construct one with
// a Builder; instrumentation passes work on Clone()d copies.
type Netlist struct {
	Name      string
	Cells     []Cell
	NumNets   int
	Inputs    []Port
	Outputs   []Port
	ClockRoot NetID // the primary clock pin; NoNet for pure-combinational modules

	driver   []CellID // per net: driving cell, or NoCell
	topo     []CellID // combinational + clock cells in dependency order
	netNames map[NetID]string

	memo sync.Map // Memo's slots: key -> sync.OnceValue(build)
}

// Memo returns what build returned the first time Memo was called on nl
// with this key, running build at most once per (netlist, key) however
// many goroutines ask; different netlists build concurrently. It is
// where an artifact derived from this netlist alone lives (engine.Cached,
// sta.CachedGraph): the artifact is reachable only through nl, so it is
// freed with nl and needs no cache, bound or eviction of its own, and a
// Clone starts with none. key should be of a type private to the caller,
// as with context.WithValue. built is true for exactly one call per
// slot, the one whose build was used. A build that panics panics again,
// with the same value, on every later call for its slot.
func (nl *Netlist) Memo(key any, build func() any) (v any, built bool) {
	f, ok := nl.memo.Load(key)
	if !ok {
		// Whichever goroutine runs the winning closure, its caller is
		// inside the same Once and reads built only after it returns.
		f, _ = nl.memo.LoadOrStore(key, sync.OnceValue(func() any {
			built = true
			return build()
		}))
	}
	v = f.(func() any)() // before built is read: a return's operand order is unspecified
	return v, built
}

// Driver returns the cell driving net n, or NoCell if n is a primary
// input or the clock root.
func (nl *Netlist) Driver(n NetID) CellID { return nl.driver[n] }

// Topo returns the combinational and clock cells in an order where every
// cell appears after all cells driving its inputs. DFFs are excluded:
// their outputs are state, available at the start of a cycle.
func (nl *Netlist) Topo() []CellID { return nl.topo }

// NetName returns the declared name of a net ("a[3]", "o_s[1]") or a
// positional fallback.
func (nl *Netlist) NetName(n NetID) string {
	if s, ok := nl.netNames[n]; ok {
		return s
	}
	if d := nl.driver[n]; d != NoCell {
		return nl.Cells[d].Name + ".Y"
	}
	return fmt.Sprintf("n%d", n)
}

// FindInput returns the input port with the given name.
func (nl *Netlist) FindInput(name string) (Port, bool) { return findPort(nl.Inputs, name) }

// FindOutput returns the output port with the given name.
func (nl *Netlist) FindOutput(name string) (Port, bool) { return findPort(nl.Outputs, name) }

func findPort(ports []Port, name string) (Port, bool) {
	for _, p := range ports {
		if p.Name == name {
			return p, true
		}
	}
	return Port{}, false
}

// DFFs returns the IDs of all flip-flops, in cell order.
func (nl *Netlist) DFFs() []CellID {
	n := 0
	for i := range nl.Cells {
		if nl.Cells[i].Kind == cell.DFF {
			n++
		}
	}
	out := make([]CellID, 0, n)
	for i := range nl.Cells {
		if nl.Cells[i].Kind == cell.DFF {
			out = append(out, CellID(i))
		}
	}
	return out
}

// CountKind returns the number of cells of the given kind.
func (nl *Netlist) CountKind(k cell.Kind) int {
	n := 0
	for _, c := range nl.Cells {
		if c.Kind == k {
			n++
		}
	}
	return n
}

// Readers returns, for every net, the cells that read it (through any
// input pin, including DFF D and clock pins).
func (nl *Netlist) Readers() [][]CellID {
	r := make([][]CellID, nl.NumNets)
	for i, c := range nl.Cells {
		for _, in := range c.In {
			r[in] = append(r[in], CellID(i))
		}
		if c.Clk != NoNet {
			r[c.Clk] = append(r[c.Clk], CellID(i))
		}
	}
	return r
}

// FanoutCone returns the set of cells transitively reachable from the
// given seed nets, following data pins through both combinational cells
// and flip-flops (a DFF is in the cone if its D input is; the traversal
// then continues from its Q output). Clock pins are not followed. The
// result is sorted by CellID.
func (nl *Netlist) FanoutCone(seeds []NetID) []CellID {
	readers := nl.Readers()
	inCone := make([]bool, len(nl.Cells))
	var stack []NetID
	seen := make([]bool, nl.NumNets)
	for _, s := range seeds {
		if !seen[s] {
			seen[s] = true
			stack = append(stack, s)
		}
	}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, cid := range readers[n] {
			c := &nl.Cells[cid]
			if c.Clk == n && !contains(c.In, n) {
				continue // reached through the clock pin only
			}
			if inCone[cid] {
				continue
			}
			inCone[cid] = true
			if !seen[c.Out] {
				seen[c.Out] = true
				stack = append(stack, c.Out)
			}
		}
	}
	var out []CellID
	for i, in := range inCone {
		if in {
			out = append(out, CellID(i))
		}
	}
	return out
}

func contains(nets []NetID, n NetID) bool {
	for _, x := range nets {
		if x == n {
			return true
		}
	}
	return false
}

// Clone returns a deep structural copy that can be mutated by
// instrumentation passes without affecting the original. All input-pin
// slices of the copy share one backing slab, so cloning a million-cell
// netlist costs a handful of allocations, not one per cell.
func (nl *Netlist) Clone() *Netlist {
	c := &Netlist{
		Name:      nl.Name,
		Cells:     make([]Cell, len(nl.Cells)),
		NumNets:   nl.NumNets,
		Inputs:    clonePorts(nl.Inputs),
		Outputs:   clonePorts(nl.Outputs),
		ClockRoot: nl.ClockRoot,
		driver:    append([]CellID(nil), nl.driver...),
		topo:      append([]CellID(nil), nl.topo...),
		netNames:  make(map[NetID]string, len(nl.netNames)),
	}
	total := 0
	for i := range nl.Cells {
		total += len(nl.Cells[i].In)
	}
	slab := make([]NetID, 0, total)
	for i, cc := range nl.Cells {
		if len(cc.In) > 0 {
			lo := len(slab)
			slab = append(slab, cc.In...)
			cc.In = slab[lo:len(slab):len(slab)]
		}
		c.Cells[i] = cc
	}
	for k, v := range nl.netNames {
		c.netNames[k] = v
	}
	return c
}

func clonePorts(ps []Port) []Port {
	out := make([]Port, len(ps))
	for i, p := range ps {
		out[i] = Port{Name: p.Name, Bits: append(Bus(nil), p.Bits...)}
	}
	return out
}

// Stats summarizes a netlist for reports.
type Stats struct {
	Cells      int
	DFFs       int
	ClockCells int
	Comb       int
	Nets       int
}

// Stats computes summary counts.
func (nl *Netlist) Stats() Stats {
	s := Stats{Cells: len(nl.Cells), Nets: nl.NumNets}
	for i := range nl.Cells {
		switch k := nl.Cells[i].Kind; {
		case k.IsSequential():
			s.DFFs++
		case k.IsClock():
			s.ClockCells++
		default:
			s.Comb++
		}
	}
	return s
}

// String renders the stats in the one-line form used by the cmds.
func (s Stats) String() string {
	return fmt.Sprintf("%d cells (%d dff, %d clock, %d comb), %d nets",
		s.Cells, s.DFFs, s.ClockCells, s.Comb, s.Nets)
}
