package engine

import (
	"fmt"
	"math/bits"
	"sort"

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
// clock. Every embedded LFSR in a failing netlist is seeded and clocked
// identically, so one LFSR per lane serves all of the lane's sites; it is
// bit-sliced, one word per LFSR bit, so that a lane held at an edge
// keeps its LFSR while the others step.
//
// FaultedPacked exposes Settle and Edge as separate phases (instead of
// the scalar simulator's fused Step) so a driver can read settled
// outputs, compare lanes word-wise, and hold diverged lanes (Hold)
// before the clock edge — mirroring the check-then-step structure of
// module.Driver.Exec exactly. A caller may also drive one lane's inputs
// (SetInputLanes), so lanes that run different programs share one
// settle: each lane then sees exactly the cycles it was not held at.

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

// faultSite is one compiled overlay, both flip-flops mapped to their
// Program DFF slots. X's clock clocks a setup site's history register,
// and X's reset value seeds it.
type faultSite struct {
	lanes uint64
	dff   int32 // the endpoint Y
	xdff  int32 // the launching flip-flop X
	check OverlayCheck
	c     OverlayC
	edge  OverlayEdge
	same  bool // Start == End: metastable, active unconditionally
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
		slot := dffSlot(p, o.End)
		if endLanes[slot]&o.Lanes != 0 {
			return nil, fmt.Errorf("engine: overlay %d: endpoint %s already faulted in an overlapping lane",
				i, nl.Cells[o.End].Name)
		}
		endLanes[slot] |= o.Lanes
		fp.sites = append(fp.sites, faultSite{
			lanes: o.Lanes, dff: slot, xdff: dffSlot(p, o.Start),
			check: o.Check, c: o.C, edge: o.Edge, same: o.Start == o.End,
		})
	}
	return fp, nil
}

// sample is the word site s makes its endpoint Y capture, lane by lane,
// from what an edge reads: C where the site is active, Y's D elsewhere.
// h is the site's history word, xq and xd are X's Q and D, yd is Y's D,
// and rnd is the LFSR output word. A setup site compares X's Q with its
// history (X at its last clocked edge), a hold site X's D with its Q,
// and a metastable one (Start == End) is always active.
func (s *faultSite) sample(h, xq, xd, yd, rnd uint64) uint64 {
	active := ^uint64(0)
	if !s.same {
		prev, cur := h, xq
		if s.check == OverlayHold {
			prev, cur = xq, xd
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
		c = rnd
	}
	return c&active | yd&^active
}

// dffSlot is flip-flop cell id's index into p.DFFs, which is in cell
// order.
func dffSlot(p *Program, id netlist.CellID) int32 {
	return int32(sort.Search(len(p.DFFs), func(k int) bool { return p.DFFs[k].Cell >= int32(id) }))
}

// FaultedPacked evaluates a FaultedProgram over 64 lanes: lane 0 is the
// golden circuit, every other lane the golden circuit plus its overlay
// sites. A held lane (Hold) keeps its state: no edge clocks it, none of
// its sites is evaluated, and Golden, Quiet and Restore pass it by, so a
// driver can park a lane where it diverged and continue it later on the
// same evaluator.
//
// Settle is gated: it re-evaluates only the runs whose inputs may have
// changed since the last settle. That holds because every writer of
// vals either marks pending the readers of each net whose word it
// changed (SetInputLanes, Edge, Restore) or every run (Reset); Settle itself
// marks pending the readers of each run that changed an output word.
type FaultedPacked struct {
	fp     *FaultedProgram
	prog   *Program
	feeds  *feedTable
	vals   []uint64 // current word of every net
	dffBuf []uint64 // staged DFF next-state, one word per flip-flop
	hist   []uint64 // per site: X(t-1) history words (setup sites)
	// lfsr is every lane's CRandom source, bit-sliced: word k holds bit
	// k of each lane's LFSR.
	lfsr [16]uint64
	hold uint64     // lanes the next edges leave as they are
	rec  *Recording // where Mark and Edge record lane 0, while recording

	// pend is the bitset of runs the next settle evaluates, run r at bit
	// r%64 of word r/64; every settle ends with it clear.
	pend      []uint64
	evaluated int // runs evaluated by every settle so far
}

// NewFaultedPacked creates a faulted evaluator in the reset state.
func NewFaultedPacked(fp *FaultedProgram) *FaultedPacked {
	p := fp.Prog
	e := &FaultedPacked{
		fp: fp, prog: p, feeds: p.feedTable(),
		vals:   make([]uint64, p.NumNets),
		dffBuf: make([]uint64, len(p.DFFs)),
		hist:   make([]uint64, len(fp.sites)),
		pend:   make([]uint64, (len(p.Runs)+63)/64),
	}
	e.Reset()
	return e
}

// Reset re-applies reset values in every lane: DFF Init words, overlay
// history registers from X's Init, the LFSR seed, and an empty hold
// mask. The next settle evaluates every run.
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
		e.hist[i] = 0
		if e.prog.DFFs[e.fp.sites[i].xdff].Init {
			e.hist[i] = ^uint64(0)
		}
	}
	for k := range e.lfsr {
		e.lfsr[k] = -uint64(overlayLFSRSeed >> k & 1)
	}
	e.hold = 0
	for i := range e.pend {
		e.pend[i] = ^uint64(0)
	}
	if r := len(e.prog.Runs) % 64; r != 0 {
		e.pend[len(e.pend)-1] = 1<<uint(r) - 1
	}
}

// SetInputLanes drives a (multi-bit) input port with the low len(port)
// bits of val in the lanes of mask; the other lanes keep what they were
// driven with. A wave drives all its unheld lanes alike, as the packed
// campaign replays one program against 63 fault variants; a gang drives
// each lane on its own.
func (e *FaultedPacked) SetInputLanes(name string, mask, val uint64) {
	p, ok := e.prog.Netlist.FindInput(name)
	if !ok {
		panic(fmt.Sprintf("engine: no input port %q on %s", name, e.prog.Netlist.Name))
	}
	for i, n := range p.Bits {
		e.write(int32(n), e.vals[n]&^mask|-(val>>uint(i)&1)&mask)
	}
}

// write sets state net n to w and, if the word changed, marks the runs
// that read it pending.
func (e *FaultedPacked) write(n int32, w uint64) {
	if e.vals[n] == w {
		return
	}
	e.vals[n] = w
	for _, rs := range e.feeds.readers[e.feeds.slot[n]] {
		e.pend[rs.word] |= rs.mask
	}
}

// Word reads the current word of net n. Callers settle explicitly
// before reading combinational nets.
func (e *FaultedPacked) Word(n netlist.NetID) uint64 { return e.vals[n] }

// Lane reads the value of net n in a single lane.
func (e *FaultedPacked) Lane(n netlist.NetID, lane int) bool {
	return e.vals[n]>>uint(lane)&1 == 1
}

// Hold makes every following Edge leave the lanes of mask as they are:
// their flip-flops, history registers and LFSR keep their words, as if
// the lanes' clock were stopped, and their sites cost nothing. A held
// lane whose inputs are not written keeps every net's value. Hold(0)
// clocks every lane again.
func (e *FaultedPacked) Hold(mask uint64) { e.hold = mask }

// Settle propagates all 64 lanes through the combinational logic,
// evaluating only the pending runs, in program order: a run whose inputs
// hold the words of the last settle still holds that settle's outputs.
// A run that changes an output word marks its readers pending; they all
// come after it, so one ascending walk of the bitset settles everything.
func (e *FaultedPacked) Settle() {
	readers, pend, runs, ops, vals := e.feeds.readers, e.pend, e.prog.Runs, e.prog.Ops, e.vals
	n := 0
	for w := range pend {
		for pend[w] != 0 {
			r := w*64 + bits.TrailingZeros64(pend[w])
			pend[w] &= pend[w] - 1
			n++
			rn := runs[r]
			if settleRun(rn.Kind, ops[rn.Lo:rn.Hi], vals) != 0 {
				for _, rs := range readers[r] {
					pend[rs.word] |= rs.mask
				}
			}
		}
	}
	e.evaluated += n
}

// settleRun evaluates one same-kind run of a gated settle and returns
// the OR of every output's old^new word, nonzero iff one changed. It is
// settlePacked's switch plus that OR: folding the two into one kernel
// would make the uniform evaluator read every output's old word, which
// slows its million-gate random SP by about a sixth (DESIGN.md).
func settleRun(kind cell.Kind, run []Op, vals []uint64) (d uint64) {
	set := func(o int32, v uint64) {
		d |= vals[o] ^ v
		vals[o] = v
	}
	switch kind {
	case cell.TIE0:
		for i := range run {
			set(run[i].Out, 0)
		}
	case cell.TIE1:
		for i := range run {
			set(run[i].Out, ^uint64(0))
		}
	case cell.BUF, cell.CLKBUF:
		for i := range run {
			set(run[i].Out, vals[run[i].In[0]])
		}
	case cell.INV:
		for i := range run {
			set(run[i].Out, ^vals[run[i].In[0]])
		}
	case cell.AND2, cell.CLKGATE:
		for i := range run {
			set(run[i].Out, vals[run[i].In[0]]&vals[run[i].In[1]])
		}
	case cell.OR2:
		for i := range run {
			set(run[i].Out, vals[run[i].In[0]]|vals[run[i].In[1]])
		}
	case cell.NAND2:
		for i := range run {
			set(run[i].Out, ^(vals[run[i].In[0]] & vals[run[i].In[1]]))
		}
	case cell.NOR2:
		for i := range run {
			set(run[i].Out, ^(vals[run[i].In[0]] | vals[run[i].In[1]]))
		}
	case cell.XOR2:
		for i := range run {
			set(run[i].Out, vals[run[i].In[0]]^vals[run[i].In[1]])
		}
	case cell.XNOR2:
		for i := range run {
			set(run[i].Out, ^(vals[run[i].In[0]] ^ vals[run[i].In[1]]))
		}
	case cell.MUX2:
		for i := range run {
			s := vals[run[i].In[2]]
			set(run[i].Out, (vals[run[i].In[0]]&^s)|(vals[run[i].In[1]]&s))
		}
	case cell.AOI21:
		for i := range run {
			set(run[i].Out, ^((vals[run[i].In[0]] & vals[run[i].In[1]]) | vals[run[i].In[2]]))
		}
	case cell.OAI21:
		for i := range run {
			set(run[i].Out, ^((vals[run[i].In[0]] | vals[run[i].In[1]]) & vals[run[i].In[2]]))
		}
	default:
		panic("engine: cannot evaluate " + kind.String())
	}
	return d
}

// Edge completes the cycle in every lane not held: stage every
// flip-flop's base next-state, mix in the lane-masked faulty values at
// the overlay endpoints, update the overlay history registers, publish,
// and step the LFSRs. All reads see pre-edge settled values —
// flip-flops, history registers and LFSR sample simultaneously, exactly
// like the instrumented cells of a failing netlist under the scalar
// simulator. A held lane sees its clock low.
func (e *FaultedPacked) Edge() {
	vals, hold := e.vals, e.hold
	dffs := e.prog.DFFs
	if e.rec != nil && hold&1 == 0 {
		e.rec.edge(vals, dffs)
	}
	for i := range dffs {
		f := &dffs[i]
		clk := vals[f.Clk] &^ hold
		e.dffBuf[i] = (vals[f.D] & clk) | (vals[f.Out] &^ clk)
	}
	cRnd := e.lfsr[15] // each lane's LFSR output bit (qs[15])
	for si := range e.fp.sites {
		s := &e.fp.sites[si]
		m := s.lanes &^ hold
		if m == 0 {
			continue
		}
		x, f := &dffs[s.xdff], &dffs[s.dff]
		faulty := s.sample(e.hist[si], vals[x.Out], vals[x.D], vals[f.D], cRnd)
		clk := vals[f.Clk] &^ hold
		staged := (faulty & clk) | (vals[f.Out] &^ clk)
		e.dffBuf[s.dff] = (e.dffBuf[s.dff] &^ m) | (staged & m)
	}
	for si := range e.fp.sites {
		s := &e.fp.sites[si]
		if s.check == OverlaySetup && !s.same {
			x := &dffs[s.xdff]
			clk := vals[x.Clk] &^ hold
			e.hist[si] = (vals[x.Out] & clk) | (e.hist[si] &^ clk)
		}
	}
	for i := range dffs {
		e.write(dffs[i].Out, e.dffBuf[i])
	}
	l := &e.lfsr
	fb := l[15] ^ l[13] ^ l[12] ^ l[10]
	for k := len(l) - 1; k > 0; k-- {
		l[k] = l[k-1]&^hold | l[k]&hold
	}
	l[0] = fb&^hold | l[0]&hold
}

// Step is Settle followed by Edge — one full cycle for drivers that do
// not need to observe the settled state in between.
func (e *FaultedPacked) Step() {
	e.Settle()
	e.Edge()
}
