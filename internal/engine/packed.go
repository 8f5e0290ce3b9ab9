package engine

import (
	"fmt"
	"math/bits"

	"repro/internal/cell"
	"repro/internal/netlist"
)

// Lanes is the width of the packed evaluator: one uint64 word per net,
// each bit position an independent stimulus stream.
const Lanes = 64

// Packed is the 64-lane bit-parallel interpreter over a compiled
// program. Every net holds a uint64 word; bit l of every word belongs to
// lane l, an independent simulation advancing in lock-step with the
// other 63. One Settle costs about the same as a scalar Settle (the ALU
// operates on words either way), so evaluating 64 stimulus streams per
// pass is where the throughput win comes from.
//
// SP residency is accumulated in aggregate across the observed lanes
// (all 64 unless ObserveLanes narrows them) via popcount: each cycle a
// data net adds OnesCount64(word & observed) — the exact number of
// observed lanes seeing a logical 1 — and a clock-network net adds half
// that (a running clock spends half of each period high; a gated-off
// clock idles low, contributing nothing). Counts are integers (halves
// for clock nets) accumulated in float64, so sums stay exact far beyond
// any realistic observation length (2^53 half-cycles).
//
// A Packed is not safe for concurrent use; create one per goroutine.
// The compiled program it runs is shared read-only.
type Packed struct {
	prog   *Program
	vals   []uint64 // current word of every net
	dffBuf []uint64 // staged DFF next-state, one word per flip-flop

	spEnabled bool
	spLanes   uint64    // lanes whose cycles are observed
	spCycles  uint64    // lane-cycles observed so far
	spOnes    []float64 // per net: aggregate lane-residency (lane-cycles)
}

// NewPacked creates a packed evaluator in the reset state: all DFFs hold
// their Init value in every lane and all primary inputs are 0.
func NewPacked(p *Program) *Packed {
	e := &Packed{
		prog:    p,
		vals:    make([]uint64, p.NumNets),
		dffBuf:  make([]uint64, len(p.DFFs)),
		spLanes: ^uint64(0),
	}
	e.Reset()
	return e
}

// Reset re-applies reset values in every lane. The SP counters and the
// lane-cycles they were observed over are preserved, so a profile can
// accumulate across runs that each start from reset — the scalar
// simulator's Reset contract.
func (e *Packed) Reset() {
	for i := range e.vals {
		e.vals[i] = 0
	}
	if e.prog.ClockRoot >= 0 {
		e.vals[e.prog.ClockRoot] = ^uint64(0) // clock enabled in every lane
	}
	for i := range e.prog.DFFs {
		if e.prog.DFFs[i].Init {
			e.vals[e.prog.DFFs[i].Out] = ^uint64(0)
		}
	}
}

// EnableSP turns on aggregate signal-probability accumulation.
func (e *Packed) EnableSP() {
	e.spEnabled = true
	if e.spOnes == nil {
		e.spOnes = make([]float64, e.prog.NumNets)
	}
}

// ObserveLanes restricts SP accumulation to the lanes set in mask: from
// the next Edge on, only those lanes' values are counted and only they
// add to the profile's lane-cycles. Every lane keeps evaluating; a lane
// outside the mask is a stream whose cycles are not part of the
// observation (it has run out of stimulus, or never had any).
func (e *Packed) ObserveLanes(mask uint64) { e.spLanes = mask }

// SetNet drives net n with a full word: bit l is the value lane l sees.
func (e *Packed) SetNet(n netlist.NetID, word uint64) { e.vals[n] = word }

// Lane reads the value of net n in a single lane.
func (e *Packed) Lane(n netlist.NetID, lane int) bool {
	return e.vals[n]>>uint(lane)&1 == 1
}

// SetInput drives a (multi-bit) input port with the low len(port) bits
// of val, LSB first, broadcast to all 64 lanes.
func (e *Packed) SetInput(name string, val uint64) {
	p, ok := e.prog.Netlist.FindInput(name)
	if !ok {
		panic(fmt.Sprintf("engine: no input port %q on %s", name, e.prog.Netlist.Name))
	}
	for i, n := range p.Bits {
		e.vals[n] = -(val >> uint(i) & 1)
	}
}

// Output reads a (multi-bit) output port in one lane as a uint64, LSB
// first. Callers settle before reading.
func (e *Packed) Output(name string, lane int) uint64 {
	p, ok := e.prog.Netlist.FindOutput(name)
	if !ok {
		panic(fmt.Sprintf("engine: no output port %q on %s", name, e.prog.Netlist.Name))
	}
	var v uint64
	for i, n := range p.Bits {
		v |= (e.vals[n] >> uint(lane) & 1) << uint(i)
	}
	return v
}

// Settle propagates all 64 lanes through the combinational logic (and
// the clock network) in program order.
func (e *Packed) Settle() { settlePacked(e.prog, e.vals) }

// settlePacked is the uniform Packed evaluator's combinational loop. It
// evaluates every run: random stimulus changes most sources every cycle,
// so asking which runs may be skipped (FaultedPacked.Settle) would cost
// more than it saves.
func settlePacked(p *Program, vals []uint64) {
	ops := p.Ops
	for _, r := range p.Runs {
		run := ops[r.Lo:r.Hi]
		switch r.Kind {
		case cell.TIE0:
			for i := range run {
				vals[run[i].Out] = 0
			}
		case cell.TIE1:
			for i := range run {
				vals[run[i].Out] = ^uint64(0)
			}
		case cell.BUF, cell.CLKBUF:
			for i := range run {
				vals[run[i].Out] = vals[run[i].In[0]]
			}
		case cell.INV:
			for i := range run {
				vals[run[i].Out] = ^vals[run[i].In[0]]
			}
		case cell.AND2, cell.CLKGATE:
			for i := range run {
				vals[run[i].Out] = vals[run[i].In[0]] & vals[run[i].In[1]]
			}
		case cell.OR2:
			for i := range run {
				vals[run[i].Out] = vals[run[i].In[0]] | vals[run[i].In[1]]
			}
		case cell.NAND2:
			for i := range run {
				vals[run[i].Out] = ^(vals[run[i].In[0]] & vals[run[i].In[1]])
			}
		case cell.NOR2:
			for i := range run {
				vals[run[i].Out] = ^(vals[run[i].In[0]] | vals[run[i].In[1]])
			}
		case cell.XOR2:
			for i := range run {
				vals[run[i].Out] = vals[run[i].In[0]] ^ vals[run[i].In[1]]
			}
		case cell.XNOR2:
			for i := range run {
				vals[run[i].Out] = ^(vals[run[i].In[0]] ^ vals[run[i].In[1]])
			}
		case cell.MUX2:
			for i := range run {
				s := vals[run[i].In[2]]
				vals[run[i].Out] = (vals[run[i].In[0]] &^ s) | (vals[run[i].In[1]] & s)
			}
		case cell.AOI21:
			for i := range run {
				vals[run[i].Out] = ^((vals[run[i].In[0]] & vals[run[i].In[1]]) | vals[run[i].In[2]])
			}
		case cell.OAI21:
			for i := range run {
				vals[run[i].Out] = ^((vals[run[i].In[0]] | vals[run[i].In[1]]) & vals[run[i].In[2]])
			}
		default:
			panic("engine: cannot evaluate " + r.Kind.String())
		}
	}
}

// Step is Settle followed by Edge — one full cycle for drivers that do
// not need to observe the settled state in between.
func (e *Packed) Step() {
	e.Settle()
	e.Edge()
}

// Edge completes the cycle from the settled state: sample SP, then
// apply the rising clock edge per lane — a flip-flop's lane samples D
// only where its clock word is high, so clock gating acts independently
// per lane, exactly like the scalar simulator's per-cycle enable check.
func (e *Packed) Edge() {
	if e.spEnabled {
		e.sampleSP()
	}
	vals := e.vals
	dffs := e.prog.DFFs
	for i := range dffs {
		f := &dffs[i]
		clk := vals[f.Clk]
		e.dffBuf[i] = (vals[f.D] & clk) | (vals[f.Out] &^ clk)
	}
	for i := range dffs {
		vals[dffs[i].Out] = e.dffBuf[i]
	}
}

// sampleSP accumulates one cycle of aggregate residency across the
// observed lanes.
func (e *Packed) sampleSP() {
	m := e.spLanes
	for _, n := range e.prog.dataNets {
		e.spOnes[n] += float64(bits.OnesCount64(e.vals[n] & m))
	}
	for _, n := range e.prog.clockNets {
		e.spOnes[n] += 0.5 * float64(bits.OnesCount64(e.vals[n]&m))
	}
	e.spCycles += uint64(bits.OnesCount64(m))
}

// Profile snapshots the accumulated SP counters. Cycles counts the
// lane-cycles they were sampled over (64 per packed cycle with every
// lane observed): each lane is a full, independent observation, so a
// packed profile merges with scalar partial profiles through
// MergeProfiles without any special casing — the Ones counters are the
// same "sum over observed cycles of per-cycle residency" quantity, just
// summed over 64 streams at once.
func (e *Packed) Profile() *Profile {
	p := &Profile{
		Cycles: e.spCycles,
		SP:     make([]float64, e.prog.NumNets),
		Ones:   make([]float64, e.prog.NumNets),
	}
	copy(p.Ones, e.spOnes)
	if p.Cycles == 0 {
		return p
	}
	for n := range p.SP {
		p.SP[n] = p.Ones[n] / float64(p.Cycles)
	}
	return p
}
