package sta

import (
	"sync"
	"sync/atomic"

	"repro/internal/cell"
	"repro/internal/engine"
	"repro/internal/netlist"
)

// This file is the compile step of the batched STA engine: a netlist is
// lowered once into a TimingGraph — flat, cache-friendly arrays in
// traversal order — and every corner evaluation reuses it. It mirrors
// internal/engine's Compile/Cached split: compile cost is paid once per
// netlist, evaluation state lives elsewhere (batchState in batch.go).

// Cell classes steer the path walker without re-deriving kind predicates
// per visit.
const (
	classComb uint8 = iota // combinational: paths pass through
	classDFF               // flip-flop: paths start here
	classStop              // clock cells and ties: no timed data arrival
)

// combOp is one combinational cell in topological order.
type combOp struct {
	cellID netlist.CellID
	out    netlist.NetID
}

// clockOp is one clock-network cell in topological order; slot out's
// clock arrival is slot in's plus the cell's (aged) max delay.
type clockOp struct {
	cellID  netlist.CellID
	out, in int32
}

// endpoint is one flip-flop, in cell order — the order the scalar
// analysis scans endpoints in, which the batched merge must reproduce.
type endpoint struct {
	cellID netlist.CellID
	d, q   netlist.NetID
	clk    int32 // clock slot
}

// TimingGraph is the reusable compiled form of a netlist for timing
// analysis. It is immutable after CompileGraph and shared read-only
// across corners and goroutines.
type TimingGraph struct {
	nl *netlist.Netlist

	numNets  int
	numCells int

	// Per-cell tables.
	kind    []cell.Kind
	class   []uint8
	outNet  []netlist.NetID
	clkSlot []int32 // DFF clock pin's clock slot; -1 otherwise

	// Per-net driving cell (flattened copy of netlist.Driver).
	driver []netlist.CellID

	// Flattened input pins: cell i reads cellIn[cellInLo[i]:cellInLo[i+1]].
	cellInLo []int32
	cellIn   []netlist.NetID

	// Traversal orders derived from nl.Topo().
	combOps  []combOp
	clockOps []clockOp

	// Flip-flops in cell order.
	endpoints []endpoint

	// Nets the arrival pass never writes (everything but flip-flop
	// outputs and combinational outputs). Evaluation sentinel-fills
	// exactly these lanes instead of sweeping the whole arrival arrays.
	untimed []netlist.NetID

	// The clock nets — clock-cell inputs and outputs and flip-flop clock
	// pins — numbered densely as clock slots 0..numClk-1: only they carry
	// a clock arrival. clkRoots are the slots no clock cell drives (tree
	// roots, arrival zero by definition), listed like untimed so
	// evaluation state can be reused without a full clearing sweep.
	numClk   int
	clkRoots []int32

	// Cell kinds the netlist actually instantiates. The corner-major
	// characterization grid is only materialized for these rows.
	usedKinds []cell.Kind

	// Incremental re-timing support (incremental.go), built by the first
	// NewIncremental through fanOnce: a full analysis never reads it.
	// combPos maps each cell to its position in combOps (-1 for
	// non-combinational cells); the fanout CSR lists, per net, the combOps
	// positions reading it through a data pin: net n's readers are
	// fanOp[fanLo[n]:fanLo[n+1]]. Positions rather than cell IDs, because
	// the incremental worklist is ordered by topological position — a
	// reader's position is always greater than its driver's, so an
	// ascending drain re-evaluates every cone member exactly once.
	fanOnce sync.Once
	combPos []int32
	fanLo   []int32
	fanOp   []int32
}

// CompileGraph lowers a netlist into its timing graph.
func CompileGraph(nl *netlist.Netlist) *TimingGraph {
	g := &TimingGraph{
		nl:       nl,
		numNets:  nl.NumNets,
		numCells: len(nl.Cells),
	}
	g.kind = make([]cell.Kind, g.numCells)
	g.class = make([]uint8, g.numCells)
	g.outNet = make([]netlist.NetID, g.numCells)
	g.clkSlot = make([]int32, g.numCells)
	g.driver = make([]netlist.CellID, g.numNets)
	for n := range g.driver {
		g.driver[n] = nl.Driver(netlist.NetID(n))
	}

	totalIn := 0
	for i := range nl.Cells {
		totalIn += len(nl.Cells[i].In)
	}
	g.cellInLo = make([]int32, g.numCells+1)
	g.cellIn = make([]netlist.NetID, 0, totalIn)
	// Topo holds every cell but the flip-flops.
	g.endpoints = make([]endpoint, 0, g.numCells-len(nl.Topo()))
	numComb := 0
	slots := make(map[netlist.NetID]int32) // clock net -> slot, compile only
	slot := func(n netlist.NetID) int32 {
		s, ok := slots[n]
		if !ok {
			s = int32(len(slots))
			slots[n] = s
		}
		return s
	}

	for i := range nl.Cells {
		c := &nl.Cells[i]
		g.cellInLo[i] = int32(len(g.cellIn))
		g.cellIn = append(g.cellIn, c.In...)
		g.kind[i] = c.Kind
		g.outNet[i] = c.Out
		g.clkSlot[i] = -1
		switch {
		case c.Kind == cell.DFF:
			g.class[i] = classDFF
			g.clkSlot[i] = slot(c.Clk)
			g.endpoints = append(g.endpoints, endpoint{
				cellID: netlist.CellID(i), d: c.In[0], clk: g.clkSlot[i], q: c.Out,
			})
		case c.Kind.IsClock(), c.Kind == cell.TIE0, c.Kind == cell.TIE1:
			g.class[i] = classStop
		default:
			g.class[i] = classComb
			numComb++
		}
	}
	g.cellInLo[g.numCells] = int32(len(g.cellIn))
	g.combOps = make([]combOp, 0, numComb)

	for _, cid := range nl.Topo() {
		switch g.class[cid] {
		case classComb:
			g.combOps = append(g.combOps, combOp{cellID: cid, out: g.outNet[cid]})
		case classStop:
			if g.kind[cid].IsClock() {
				g.clockOps = append(g.clockOps, clockOp{
					cellID: cid, out: slot(g.outNet[cid]), in: slot(g.cellIn[g.cellInLo[cid]]),
				})
			}
		}
	}

	written := make([]bool, g.numNets)
	for i := range g.endpoints {
		written[g.endpoints[i].q] = true
	}
	for i := range g.combOps {
		written[g.combOps[i].out] = true
	}
	for n, w := range written {
		if !w {
			g.untimed = append(g.untimed, netlist.NetID(n))
		}
	}

	var kindSeen [cell.NumKinds]bool
	for _, k := range g.kind {
		if !kindSeen[k] {
			kindSeen[k] = true
			g.usedKinds = append(g.usedKinds, k)
		}
	}

	g.numClk = len(slots)
	clkDriven := make([]bool, g.numClk)
	for i := range g.clockOps {
		clkDriven[g.clockOps[i].out] = true
	}
	for s, driven := range clkDriven {
		if !driven {
			g.clkRoots = append(g.clkRoots, int32(s))
		}
	}

	return g
}

// buildFanout builds the incremental re-timing tables; call it through
// g.fanOnce. The fanout CSR takes two counting passes, no per-net slice
// churn. A net read through several pins of one cell appears once per
// pin; the worklist's dirty bitmap makes duplicates harmless.
func (g *TimingGraph) buildFanout() {
	g.combPos = make([]int32, g.numCells)
	for i := range g.combPos {
		g.combPos[i] = -1
	}
	for p := range g.combOps {
		g.combPos[g.combOps[p].cellID] = int32(p)
	}
	g.fanLo = make([]int32, g.numNets+1)
	for p := range g.combOps {
		cid := g.combOps[p].cellID
		for j := g.cellInLo[cid]; j < g.cellInLo[cid+1]; j++ {
			g.fanLo[g.cellIn[j]+1]++
		}
	}
	for n := 0; n < g.numNets; n++ {
		g.fanLo[n+1] += g.fanLo[n]
	}
	g.fanOp = make([]int32, g.fanLo[g.numNets])
	cursor := make([]int32, g.numNets)
	copy(cursor, g.fanLo[:g.numNets])
	for p := range g.combOps {
		cid := g.combOps[p].cellID
		for j := g.cellInLo[cid]; j < g.cellInLo[cid+1]; j++ {
			n := g.cellIn[j]
			g.fanOp[cursor[n]] = int32(p)
			cursor[n]++
		}
	}
}

// graphKey is CachedGraph's slot in netlist.Netlist.Memo.
type graphKey struct{}

var graphHits, graphMisses atomic.Uint64

// CachedGraph returns the compiled timing graph for nl, compiling it on
// first use and keeping it on nl itself — the same contract as
// engine.Cached: one graph per netlist value, freed with its netlist.
// Safe for concurrent use; the returned graph is shared and read-only.
func CachedGraph(nl *netlist.Netlist) *TimingGraph {
	g, built := nl.Memo(graphKey{}, func() any { return CompileGraph(nl) })
	if built {
		graphMisses.Add(1)
	} else {
		graphHits.Add(1)
	}
	return g.(*TimingGraph)
}

// GraphCacheStats snapshots CachedGraph's counters.
func GraphCacheStats() engine.MemoStats {
	return engine.MemoStats{Hits: graphHits.Load(), Misses: graphMisses.Load()}
}
