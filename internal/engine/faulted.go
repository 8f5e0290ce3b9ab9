package engine

import (
	"fmt"

	"repro/internal/cell"
	"repro/internal/netlist"
)

// This file is the concurrent-fault-simulation core: a 64-lane packed
// evaluator whose lanes disagree. Lane 0 runs the unmodified (golden)
// netlist; lanes 1-63 each carry an independent timing-violation
// failure model, expressed as a lane-masked overlay on the shared
// compiled Program instead of as 63 separately instrumented netlists.
//
// An Overlay is the engine-level mirror of fault.Spec (the engine
// cannot import internal/fault — fault sits above the engine via
// internal/sta — so the injection plane translates specs into overlays).
// The overlay semantics are bit-exact with fault.FailingNetlist's
// instrumentation: the endpoint flip-flop Y samples (active ? C : D)
// where active compares X(t) with X(t-1) (setup, via a history
// register) or with X(t+1)=X.D (hold), optionally edge-filtered, and C
// is a constant or the output of a 16-bit LFSR clocked with the root
// clock. Because every embedded LFSR in a failing netlist is seeded and
// clocked identically, one shared LFSR word serves all lanes and sites.
//
// FaultedPacked exposes Settle and Edge as separate phases (instead of
// the scalar simulator's fused Step) so a driver can read settled
// outputs, compare lanes word-wise, and retire diverged lanes before
// the clock edge — mirroring the check-then-step structure of
// module.Driver.Exec exactly.

// OverlayCheck selects the timing-violation flavor of an overlay.
type OverlayCheck uint8

// Overlay check types (mirror sta.Setup / sta.Hold).
const (
	OverlaySetup OverlayCheck = iota
	OverlayHold
)

// OverlayC selects the wrong value C sampled on a violation (mirror
// fault.C0 / fault.C1 / fault.CRandom).
type OverlayC uint8

// Overlay C settings.
const (
	OverlayC0 OverlayC = iota
	OverlayC1
	OverlayCRandom
)

// OverlayEdge filters activation to a transition direction of X (mirror
// fault.AnyChange / fault.RisingEdge / fault.FallingEdge).
type OverlayEdge uint8

// Overlay edge filters.
const (
	OverlayAnyChange OverlayEdge = iota
	OverlayRisingEdge
	OverlayFallingEdge
)

// overlayLFSRSeed matches the reset state of the hardware LFSR that
// fault.FailingNetlist embeds for CRandom sites (fault.addLFSR).
const overlayLFSRSeed = 0xACE1

// Overlay is one lane-masked failure site: in every lane of Lanes, the
// capturing flip-flop End misbehaves per the timing-violation model
// whenever the launching flip-flop Start satisfies the activation
// condition. Lane 0 is reserved for the golden circuit and may not
// appear in any mask.
type Overlay struct {
	Lanes uint64 // lane mask; bit l applies this site to lane l
	Check OverlayCheck
	Start netlist.CellID // X: the launching flip-flop
	End   netlist.CellID // Y: the capturing flip-flop
	C     OverlayC
	Edge  OverlayEdge
}

// faultSite is one compiled overlay: net IDs resolved, the endpoint
// mapped to its Program DFF slot.
type faultSite struct {
	lanes    uint64
	dff      int32 // index into Program.DFFs (the endpoint Y)
	xQ       int32 // X's output net
	xD       int32 // X's D-input net
	histClk  int32 // X's clock net (clocks the setup history register)
	check    OverlayCheck
	c        OverlayC
	edge     OverlayEdge
	same     bool // Start == End: metastable, active unconditionally
	histInit bool // X's reset value seeds the history register
}

// FaultedProgram is a compiled Program plus compiled lane-masked
// overlays. Like the Program it is immutable and shareable; per-run
// state lives in FaultedPacked.
type FaultedProgram struct {
	Prog  *Program
	sites []faultSite
}

// CompileFaulted validates overlays against the program's netlist and
// binds them to its flip-flop slots. It rejects sites whose cells are
// out of range or not flip-flops, masks that claim the golden lane 0
// (or no lane at all), and two overlays driving the same endpoint in
// the same lane (the packed mirror of fault.FailingNetlistMulti's
// duplicate-endpoint rule).
func CompileFaulted(p *Program, overlays []Overlay) (*FaultedProgram, error) {
	nl := p.Netlist
	dffSlot := make(map[int32]int32, len(p.DFFs))
	for i := range p.DFFs {
		dffSlot[p.DFFs[i].Cell] = int32(i)
	}
	endLanes := make(map[int32]uint64)
	fp := &FaultedProgram{Prog: p, sites: make([]faultSite, 0, len(overlays))}
	for i, o := range overlays {
		if o.Lanes == 0 {
			return nil, fmt.Errorf("engine: overlay %d has an empty lane mask", i)
		}
		if o.Lanes&1 != 0 {
			return nil, fmt.Errorf("engine: overlay %d claims the golden lane 0", i)
		}
		for _, id := range []netlist.CellID{o.Start, o.End} {
			if id < 0 || int(id) >= len(nl.Cells) {
				return nil, fmt.Errorf("engine: overlay %d: cell %d out of range (%d cells)", i, id, len(nl.Cells))
			}
			if nl.Cells[id].Kind != cell.DFF {
				return nil, fmt.Errorf("engine: overlay %d: cell %d (%s) is not a flip-flop", i, id, nl.Cells[id].Name)
			}
		}
		slot := dffSlot[int32(o.End)]
		if endLanes[slot]&o.Lanes != 0 {
			return nil, fmt.Errorf("engine: overlay %d: endpoint %s already faulted in an overlapping lane",
				i, nl.Cells[o.End].Name)
		}
		endLanes[slot] |= o.Lanes
		x := nl.Cells[o.Start]
		fp.sites = append(fp.sites, faultSite{
			lanes:    o.Lanes,
			dff:      slot,
			xQ:       int32(x.Out),
			xD:       int32(x.In[0]),
			histClk:  int32(x.Clk),
			check:    o.Check,
			c:        o.C,
			edge:     o.Edge,
			same:     o.Start == o.End,
			histInit: x.Init,
		})
	}
	return fp, nil
}

// FaultedPacked evaluates a FaultedProgram over 64 lanes: lane 0 is the
// golden circuit, every other lane the golden circuit plus its overlay
// sites. Retired lanes (Retire) drop out of overlay evaluation; the
// word-parallel base update they share with live lanes is unaffected.
type FaultedPacked struct {
	fp     *FaultedProgram
	prog   *Program
	vals   []uint64 // current word of every net
	dffBuf []uint64 // staged DFF next-state, one word per flip-flop
	hist   []uint64 // per site: X(t-1) history words (setup sites)
	lfsr   uint16   // shared CRandom source (all failing-netlist LFSRs run in lock-step)
	ret    uint64   // retired-lane mask
}

// NewFaultedPacked creates a faulted evaluator in the reset state.
func NewFaultedPacked(fp *FaultedProgram) *FaultedPacked {
	e := &FaultedPacked{
		fp:     fp,
		prog:   fp.Prog,
		vals:   make([]uint64, fp.Prog.NumNets),
		dffBuf: make([]uint64, len(fp.Prog.DFFs)),
		hist:   make([]uint64, len(fp.sites)),
	}
	e.Reset()
	return e
}

// Reset re-applies reset values in every lane: DFF Init words, overlay
// history registers from X's Init, the LFSR seed, and an empty
// retired mask.
func (e *FaultedPacked) Reset() {
	for i := range e.vals {
		e.vals[i] = 0
	}
	if e.prog.ClockRoot >= 0 {
		e.vals[e.prog.ClockRoot] = ^uint64(0)
	}
	for i := range e.prog.DFFs {
		if e.prog.DFFs[i].Init {
			e.vals[e.prog.DFFs[i].Out] = ^uint64(0)
		}
	}
	for i := range e.fp.sites {
		if e.fp.sites[i].histInit {
			e.hist[i] = ^uint64(0)
		} else {
			e.hist[i] = 0
		}
	}
	e.lfsr = overlayLFSRSeed
	e.ret = 0
}

// SetInput drives a (multi-bit) input port with the low len(port) bits
// of val, broadcast to all 64 lanes: every lane sees the same stimulus,
// as the packed campaign replays one program against 63 fault variants.
func (e *FaultedPacked) SetInput(name string, val uint64) {
	p, ok := e.prog.Netlist.FindInput(name)
	if !ok {
		panic(fmt.Sprintf("engine: no input port %q on %s", name, e.prog.Netlist.Name))
	}
	for i, n := range p.Bits {
		if val>>uint(i)&1 == 1 {
			e.vals[n] = ^uint64(0)
		} else {
			e.vals[n] = 0
		}
	}
}

// Word reads the current word of net n. Callers settle explicitly
// before reading combinational nets.
func (e *FaultedPacked) Word(n netlist.NetID) uint64 { return e.vals[n] }

// Lane reads the value of net n in a single lane.
func (e *FaultedPacked) Lane(n netlist.NetID, lane int) bool {
	return e.vals[n]>>uint(lane)&1 == 1
}

// ExtractLane copies one lane's settled value of every net into dst
// (len >= NumNets) — the state snapshot a retired lane's scalar
// continuation is seeded from.
func (e *FaultedPacked) ExtractLane(lane int, dst []bool) {
	for n, w := range e.vals {
		dst[n] = w>>uint(lane)&1 == 1
	}
}

// HistLane reads one lane of site si's history register (meaningful for
// setup sites with Start != End; false otherwise).
func (e *FaultedPacked) HistLane(si, lane int) bool {
	return e.hist[si]>>uint(lane)&1 == 1
}

// SetWord forces net n to a full word. Combinational nets are
// recomputed on the next Settle, so this is useful for seeding
// flip-flop outputs and primary inputs from a mid-run snapshot — the
// packed fault campaign resumes retired lanes this way.
func (e *FaultedPacked) SetWord(n netlist.NetID, w uint64) { e.vals[n] = w }

// SetHist forces site si's history-register word (snapshot seeding).
func (e *FaultedPacked) SetHist(si int, w uint64) { e.hist[si] = w }

// LFSR returns the shared CRandom LFSR state.
func (e *FaultedPacked) LFSR() uint16 { return e.lfsr }

// SetLFSR forces the shared CRandom LFSR state (snapshot seeding).
func (e *FaultedPacked) SetLFSR(v uint16) { e.lfsr = v }

// Retire removes lanes from overlay evaluation. Retired lanes keep
// evaluating as (meaningless) golden traffic in the word-parallel base
// update but cost nothing extra.
func (e *FaultedPacked) Retire(mask uint64) { e.ret |= mask }

// Retired returns the retired-lane mask.
func (e *FaultedPacked) Retired() uint64 { return e.ret }

// Settle propagates all 64 lanes through the combinational logic in
// program order.
func (e *FaultedPacked) Settle() { settlePacked(e.prog, e.vals) }

// Edge completes the cycle: stage every flip-flop's base next-state,
// mix in the lane-masked faulty values at the overlay endpoints, update
// the overlay history registers, publish, and step the shared LFSR.
// All reads see pre-edge settled values — flip-flops, history registers
// and LFSR sample simultaneously, exactly like the instrumented cells
// of a failing netlist under the scalar simulator.
func (e *FaultedPacked) Edge() {
	vals := e.vals
	dffs := e.prog.DFFs
	for i := range dffs {
		f := &dffs[i]
		clk := vals[f.Clk]
		e.dffBuf[i] = (vals[f.D] & clk) | (vals[f.Out] &^ clk)
	}
	var cRnd uint64 // broadcast of the LFSR output bit (qs[15])
	if e.lfsr>>15&1 == 1 {
		cRnd = ^uint64(0)
	}
	for si := range e.fp.sites {
		s := &e.fp.sites[si]
		m := s.lanes &^ e.ret
		if m == 0 {
			continue
		}
		var active uint64
		if s.same {
			active = ^uint64(0)
		} else {
			var prev, cur uint64
			if s.check == OverlaySetup {
				prev, cur = e.hist[si], vals[s.xQ]
			} else {
				prev, cur = vals[s.xQ], vals[s.xD]
			}
			switch s.edge {
			case OverlayAnyChange:
				active = prev ^ cur
			case OverlayRisingEdge:
				active = ^prev & cur
			case OverlayFallingEdge:
				active = prev &^ cur
			}
		}
		var c uint64
		switch s.c {
		case OverlayC1:
			c = ^uint64(0)
		case OverlayCRandom:
			c = cRnd
		}
		f := &e.prog.DFFs[s.dff]
		clk := vals[f.Clk]
		faulty := (c & active) | (vals[f.D] &^ active)
		staged := (faulty & clk) | (vals[f.Out] &^ clk)
		e.dffBuf[s.dff] = (e.dffBuf[s.dff] &^ m) | (staged & m)
	}
	for si := range e.fp.sites {
		s := &e.fp.sites[si]
		if s.check == OverlaySetup && !s.same {
			clk := vals[s.histClk]
			e.hist[si] = (vals[s.xQ] & clk) | (e.hist[si] &^ clk)
		}
	}
	for i := range dffs {
		vals[dffs[i].Out] = e.dffBuf[i]
	}
	fb := (e.lfsr>>15 ^ e.lfsr>>13 ^ e.lfsr>>12 ^ e.lfsr>>10) & 1
	e.lfsr = e.lfsr<<1 | fb
}

// Step is Settle followed by Edge — one full cycle for drivers that do
// not need to observe the settled state in between.
func (e *FaultedPacked) Step() {
	e.Settle()
	e.Edge()
}
