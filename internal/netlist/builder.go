package netlist

import (
	"errors"
	"fmt"
	"strconv"

	"repro/internal/cell"
)

// Builder constructs (or extends) a Netlist. All errors are deferred to
// Build so circuit-construction code can stay free of error plumbing.
//
// Cell construction is arena-backed for million-cell netlists: cells live
// in one growing []Cell, and every cell's input-pin slice is carved out of
// chunked []NetID slabs (inArena) instead of being its own heap object.
// Chunks are never reallocated once handed out, so the slices stay valid
// as the builder grows; a netlist with 10^6 two-input cells costs a few
// dozen slab allocations instead of 10^6.
type Builder struct {
	name      string
	cells     []Cell
	numNets   int
	inputs    []Port
	outputs   []Port
	clockRoot NetID
	netNames  map[NetID]string
	errs      []error
	kindSeq   [cell.NumKinds]int

	// inArena is the active input-pin slab. When a cell's pins don't fit
	// in the remaining capacity a fresh chunk replaces it; earlier chunks
	// stay alive through the cell slices that point into them.
	inArena []NetID

	// nameBuf backs autoName formatting so the per-cell cost is one
	// string allocation, not a fmt.Sprintf round trip.
	nameBuf []byte
}

// arenaChunk is the input-pin slab granularity. Large enough that slab
// bookkeeping vanishes against million-cell imports, small enough that a
// tiny netlist doesn't hold megabytes.
const arenaChunk = 1 << 16

// NewBuilder returns an empty builder for a module with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{name: name, clockRoot: NoNet, netNames: make(map[NetID]string)}
}

// NewBuilderFrom returns a builder pre-populated with an existing
// netlist's contents. Net and cell IDs are preserved, so instrumentation
// passes can reference nets of the original design directly. Output ports
// start out cleared: instrumentation usually rewires them.
func NewBuilderFrom(nl *Netlist) *Builder {
	b := NewBuilder(nl.Name)
	b.numNets = nl.NumNets
	b.clockRoot = nl.ClockRoot
	b.inputs = clonePorts(nl.Inputs)
	b.cells = make([]Cell, len(nl.Cells))
	// One slab holds every copied pin list; per-cell slices index into it.
	total := 0
	for i := range nl.Cells {
		total += len(nl.Cells[i].In)
	}
	slab := make([]NetID, 0, total)
	for i, c := range nl.Cells {
		if len(c.In) > 0 {
			lo := len(slab)
			slab = append(slab, c.In...)
			c.In = slab[lo:len(slab):len(slab)]
		}
		b.cells[i] = c
	}
	for k, v := range nl.netNames {
		b.netNames[k] = v
	}
	for _, c := range nl.Cells {
		b.kindSeq[c.Kind]++
	}
	return b
}

// Reserve pre-sizes the builder for a netlist of roughly the given cell
// count and total input-pin count, so construction at scale never pays
// for incremental table growth. Callers that know the counts up front
// (the streaming Verilog importer learns them from the wire declaration
// and the input's length; generators can compute them) call it once;
// calling it late or with small values is harmless.
func (b *Builder) Reserve(cells, totalInputs int) {
	if cap(b.cells)-len(b.cells) < cells {
		grown := make([]Cell, len(b.cells), len(b.cells)+cells)
		copy(grown, b.cells)
		b.cells = grown
	}
	if totalInputs > arenaChunk && cap(b.inArena)-len(b.inArena) < totalInputs {
		b.inArena = make([]NetID, 0, totalInputs)
	}
}

// arenaIn copies an input-pin list into the active slab and returns the
// stable full-capacity slice. Empty lists return nil, matching the
// pre-arena behaviour of append([]NetID(nil), in...).
func (b *Builder) arenaIn(in []NetID) []NetID {
	n := len(in)
	if n == 0 {
		return nil
	}
	if cap(b.inArena)-len(b.inArena) < n {
		sz := arenaChunk
		if n > sz {
			sz = n
		}
		b.inArena = make([]NetID, 0, sz)
	}
	lo := len(b.inArena)
	b.inArena = append(b.inArena, in...)
	return b.inArena[lo : lo+n : lo+n]
}

func (b *Builder) errf(format string, args ...any) {
	b.errs = append(b.errs, fmt.Errorf(format, args...))
}

// Net allocates a fresh unnamed net.
func (b *Builder) Net() NetID {
	n := NetID(b.numNets)
	b.numNets++
	return n
}

// NamedNet allocates a fresh net with a debug name.
func (b *Builder) NamedNet(name string) NetID {
	n := b.Net()
	b.netNames[n] = name
	return n
}

// NewBus allocates width fresh nets.
func (b *Builder) NewBus(width int) Bus {
	bus := make(Bus, width)
	for i := range bus {
		bus[i] = b.Net()
	}
	return bus
}

// Input declares a 1-bit input port and returns its net.
func (b *Builder) Input(name string) NetID {
	n := b.NamedNet(name)
	b.inputs = append(b.inputs, Port{Name: name, Bits: Bus{n}})
	return n
}

// InputBus declares a multi-bit input port and returns its nets (LSB
// first).
func (b *Builder) InputBus(name string, width int) Bus {
	bus := make(Bus, width)
	for i := range bus {
		bus[i] = b.NamedNet(fmt.Sprintf("%s[%d]", name, i))
	}
	b.inputs = append(b.inputs, Port{Name: name, Bits: bus})
	return bus
}

// Output declares a 1-bit output port driving from net n.
func (b *Builder) Output(name string, n NetID) {
	b.outputs = append(b.outputs, Port{Name: name, Bits: Bus{n}})
	if _, named := b.netNames[n]; !named {
		b.netNames[n] = name
	}
}

// OutputBus declares a multi-bit output port.
func (b *Builder) OutputBus(name string, bits Bus) {
	b.outputs = append(b.outputs, Port{Name: name, Bits: append(Bus(nil), bits...)})
	for i, n := range bits {
		if _, named := b.netNames[n]; !named {
			b.netNames[n] = fmt.Sprintf("%s[%d]", name, i)
		}
	}
}

// Clock declares the primary clock pin and returns its net. At most one
// clock root may be declared.
func (b *Builder) Clock(name string) NetID {
	if b.clockRoot != NoNet {
		b.errf("clock root already declared")
		return b.clockRoot
	}
	b.clockRoot = b.NamedNet(name)
	return b.clockRoot
}

func (b *Builder) autoName(k cell.Kind) string {
	b.kindSeq[k]++
	b.nameBuf = append(b.nameBuf[:0], k.String()...)
	b.nameBuf = append(b.nameBuf, '$')
	b.nameBuf = strconv.AppendInt(b.nameBuf, int64(b.kindSeq[k]), 10)
	return string(b.nameBuf)
}

// Add instantiates a combinational or clock cell with the given inputs and
// returns its (freshly allocated) output net.
func (b *Builder) Add(k cell.Kind, in ...NetID) NetID {
	return b.AddNamed(k, b.autoName(k), in...)
}

// AddNamed is Add with an explicit instance name.
func (b *Builder) AddNamed(k cell.Kind, name string, in ...NetID) NetID {
	if k.IsSequential() {
		b.errf("cell %s: use AddDFF for flip-flops", name)
		return b.Net()
	}
	if len(in) != k.NumInputs() {
		b.errf("cell %s (%s): got %d inputs, want %d", name, k, len(in), k.NumInputs())
	}
	out := b.Net()
	b.cells = append(b.cells, Cell{Kind: k, Name: name, In: b.arenaIn(in), Clk: NoNet, Out: out})
	return out
}

// AddDFF instantiates a flip-flop sampling d on the rising edge of clk,
// with the given reset value, and returns its Q net.
func (b *Builder) AddDFF(d, clk NetID, init bool) NetID {
	return b.AddDFFNamed(b.autoName(cell.DFF), d, clk, init)
}

// AddDFFNamed is AddDFF with an explicit instance name.
func (b *Builder) AddDFFNamed(name string, d, clk NetID, init bool) NetID {
	out := b.Net()
	b.cells = append(b.cells, Cell{Kind: cell.DFF, Name: name, In: b.arenaIn([]NetID{d}), Clk: clk, Out: out, Init: init})
	return out
}

// AddRaw instantiates a cell with a caller-chosen output net (which must
// have been allocated with Net and not be driven elsewhere). It exists
// for instrumentation passes that pre-allocate nets to wire mutually
// recursive shadow logic; Build validates the result like any other cell.
func (b *Builder) AddRaw(k cell.Kind, name string, in []NetID, clk, out NetID, init bool) {
	b.cells = append(b.cells, Cell{
		Kind: k, Name: name,
		In:  b.arenaIn(in),
		Clk: clk, Out: out, Init: init,
	})
}

// addDFFRaw is AddRaw for the streaming parser's DFF lines: the D pin
// goes straight into the arena without a caller-side temporary slice.
// The cell is added unnamed; the parser names every cell at once when
// the module ends.
func (b *Builder) addDFFRaw(d, clk, out NetID, init bool) {
	if cap(b.inArena)-len(b.inArena) < 1 {
		b.inArena = make([]NetID, 0, arenaChunk)
	}
	lo := len(b.inArena)
	b.inArena = append(b.inArena, d)
	b.cells = append(b.cells, Cell{
		Kind: cell.DFF,
		In:   b.inArena[lo : lo+1 : lo+1],
		Clk:  clk, Out: out, Init: init,
	})
}

// addCombRaw is AddRaw for the streaming parser's combinational and tie
// lines: up to cell.MaxArity pins copied from a fixed-size array, no
// temporary slice allocation, and no name yet (see addDFFRaw).
func (b *Builder) addCombRaw(k cell.Kind, in [cell.MaxArity]NetID, nIn int, out NetID) {
	if cap(b.inArena)-len(b.inArena) < nIn {
		b.inArena = make([]NetID, 0, arenaChunk)
	}
	lo := len(b.inArena)
	b.inArena = append(b.inArena, in[:nIn]...)
	var pins []NetID
	if nIn > 0 {
		pins = b.inArena[lo : lo+nIn : lo+nIn]
	}
	b.cells = append(b.cells, Cell{Kind: k, In: pins, Clk: NoNet, Out: out})
}

// RewireInput repoints input pin `pin` of cell cid to read from net n.
// Used by instrumentation passes on imported netlists.
func (b *Builder) RewireInput(cid CellID, pin int, n NetID) {
	if int(cid) >= len(b.cells) || pin >= len(b.cells[cid].In) {
		b.errf("RewireInput(%d,%d): out of range", cid, pin)
		return
	}
	b.cells[cid].In[pin] = n
}

// Cell returns a copy of cell cid as currently built.
func (b *Builder) Cell(cid CellID) Cell {
	c := b.cells[cid]
	c.In = append([]NetID(nil), c.In...)
	return c
}

// NumCells reports the number of cells added so far.
func (b *Builder) NumCells() int { return len(b.cells) }

// Build validates the netlist and computes the derived structures
// (drivers, topological order). It returns an error if any net is
// multiply driven or undriven, if a port references an invalid net, or if
// the combinational logic contains a cycle.
func (b *Builder) Build() (*Netlist, error) {
	if len(b.errs) > 0 {
		return nil, errors.Join(b.errs...)
	}
	nl := &Netlist{
		Name:      b.name,
		Cells:     b.cells,
		NumNets:   b.numNets,
		Inputs:    b.inputs,
		Outputs:   b.outputs,
		ClockRoot: b.clockRoot,
		netNames:  b.netNames,
	}
	if err := nl.rebuild(); err != nil {
		return nil, err
	}
	return nl, nil
}

// MustBuild is Build but panics on error; for circuit constructors whose
// input space is fully controlled by this repository.
func (b *Builder) MustBuild() *Netlist {
	nl, err := b.Build()
	if err != nil {
		panic(fmt.Sprintf("netlist %s: %v", b.name, err))
	}
	return nl
}

// rebuild recomputes drivers and the topological order, validating
// structural invariants. Every derived table is sized with a counting
// prepass — the levelization builds a CSR of ordering edges instead of
// per-net reader slices, so a million-cell Build costs a handful of
// large allocations rather than one small slice per net.
func (nl *Netlist) rebuild() error {
	driver := make([]CellID, nl.NumNets)
	for i := range driver {
		driver[i] = NoCell
	}
	nl.driver = driver // NetName (used in error messages below) needs it
	external := make([]bool, nl.NumNets)
	for _, p := range nl.Inputs {
		for _, n := range p.Bits {
			if n < 0 || int(n) >= nl.NumNets {
				return fmt.Errorf("input port %s references invalid net %d", p.Name, n)
			}
			external[n] = true
		}
	}
	if nl.ClockRoot != NoNet {
		external[nl.ClockRoot] = true
	}
	for i := range nl.Cells {
		c := &nl.Cells[i]
		if c.Out < 0 || int(c.Out) >= nl.NumNets {
			return fmt.Errorf("cell %s drives invalid net %d", c.Name, c.Out)
		}
		if driver[c.Out] != NoCell {
			return fmt.Errorf("net %s multiply driven by %s and %s",
				nl.NetName(c.Out), nl.Cells[driver[c.Out]].Name, c.Name)
		}
		if external[c.Out] {
			return fmt.Errorf("cell %s drives primary input net %s", c.Name, nl.NetName(c.Out))
		}
		driver[c.Out] = CellID(i)
	}
	used := make([]bool, nl.NumNets)
	for i := range nl.Cells {
		c := &nl.Cells[i]
		// The evaluation engine flattens input lists into fixed
		// cell.MaxArity-wide arrays (and the old interpreter's settle
		// buffer had the same silent cap); reject oversized fan-in here so
		// it can never silently drop an input downstream.
		if len(c.In) > cell.MaxArity {
			return fmt.Errorf("cell %s (%s) has %d inputs; the evaluation engine supports at most %d",
				c.Name, c.Kind, len(c.In), cell.MaxArity)
		}
		for _, in := range c.In {
			if in < 0 || int(in) >= nl.NumNets {
				return fmt.Errorf("cell %s reads invalid net %d", c.Name, in)
			}
			used[in] = true
		}
		if c.Clk != NoNet {
			used[c.Clk] = true
		}
	}
	for _, p := range nl.Outputs {
		for _, n := range p.Bits {
			if n < 0 || int(n) >= nl.NumNets {
				return fmt.Errorf("output port %s references invalid net %d", p.Name, n)
			}
			used[n] = true
		}
	}
	for n := 0; n < nl.NumNets; n++ {
		if used[n] && driver[NetID(n)] == NoCell && !external[n] {
			return fmt.Errorf("net %s is read but never driven", nl.NetName(NetID(n)))
		}
	}
	nl.driver = driver

	// Levelize combinational + clock cells with Kahn's algorithm over a
	// CSR of ordering edges. A cell depends on the drivers of its input
	// pins (and, for clock cells, the clock pin is In[0] so it is
	// covered); DFF outputs and primary inputs are sources. The edge
	// order — per net, reader cells in ascending cell order — and the
	// FIFO processing reproduce exactly the order the per-net reader
	// slices produced, so downstream compiled artifacts (engine op
	// streams, CNF variable order) are byte-identical.
	indeg := make([]int32, len(nl.Cells))
	edgeCnt := make([]int32, nl.NumNets+1)
	want := 0
	for i := range nl.Cells {
		c := &nl.Cells[i]
		if c.Kind.IsSequential() {
			continue
		}
		want++
		deg := int32(0)
		for _, in := range c.In {
			if d := driver[in]; d != NoCell && !nl.Cells[d].Kind.IsSequential() {
				deg++
				edgeCnt[in+1]++
			}
		}
		indeg[i] = deg
	}
	for n := 0; n < nl.NumNets; n++ {
		edgeCnt[n+1] += edgeCnt[n]
	}
	edges := make([]CellID, edgeCnt[nl.NumNets])
	cursor := make([]int32, nl.NumNets)
	for n := range cursor {
		cursor[n] = edgeCnt[n]
	}
	for i := range nl.Cells {
		c := &nl.Cells[i]
		if c.Kind.IsSequential() {
			continue
		}
		for _, in := range c.In {
			if d := driver[in]; d != NoCell && !nl.Cells[d].Kind.IsSequential() {
				edges[cursor[in]] = CellID(i)
				cursor[in]++
			}
		}
	}
	topo := make([]CellID, 0, want)
	for i := range nl.Cells {
		if !nl.Cells[i].Kind.IsSequential() && indeg[i] == 0 {
			topo = append(topo, CellID(i))
		}
	}
	for head := 0; head < len(topo); head++ {
		out := nl.Cells[topo[head]].Out
		for _, r := range edges[edgeCnt[out]:edgeCnt[out+1]] {
			indeg[r]--
			if indeg[r] == 0 {
				topo = append(topo, r)
			}
		}
	}
	if len(topo) != want {
		var stuck []string
		for i, d := range indeg {
			if d > 0 && !nl.Cells[i].Kind.IsSequential() {
				stuck = append(stuck, nl.Cells[i].Name)
				if len(stuck) >= 8 {
					break
				}
			}
		}
		return fmt.Errorf("combinational cycle involving %v", stuck)
	}
	nl.topo = topo
	return nil
}

// declareInput registers pre-allocated nets as an input port (used by
// the Verilog parser, which discovers nets before ports).
func (b *Builder) declareInput(name string, bits Bus) {
	for i, n := range bits {
		if _, named := b.netNames[n]; !named {
			b.netNames[n] = fmt.Sprintf("%s[%d]", name, i)
		}
	}
	b.inputs = append(b.inputs, Port{Name: name, Bits: append(Bus(nil), bits...)})
}

// declareClock registers a pre-allocated net as the clock root.
func (b *Builder) declareClock(name string, n NetID) {
	if _, named := b.netNames[n]; !named {
		b.netNames[n] = name
	}
	b.clockRoot = n
}
