// Package fault implements the paper's Failure Model Instrumentation
// (§3.3.1-§3.3.2): it takes an aging-prone path X⇝Y between two
// flip-flops and produces either
//
//   - a failing netlist — a drop-in replacement for the module whose Y
//     flip-flop misbehaves per the logical timing-violation model
//     (Eq. 2 for setup, Eq. 3 for hold), used to emulate the aged
//     silicon when evaluating test quality; or
//
//   - a shadow-replica netlist — the original circuit plus a cloned copy
//     of everything Y can influence, with the failure model driving the
//     clone, and per-output cover points (o vs o_s) for the bounded
//     model checker to target.
package fault

import (
	"fmt"

	"repro/internal/cell"
	"repro/internal/netlist"
	"repro/internal/sta"
)

// CValue selects the wrong value C sampled on a violation (§3.3.1). For
// trace generation C must be a constant (0 or 1) to bound the formal
// search space; failing netlists additionally support a per-cycle
// pseudo-random C, implemented with an embedded LFSR.
type CValue int

// C settings.
const (
	C0 CValue = iota
	C1
	CRandom
)

func (c CValue) String() string {
	switch c {
	case C0:
		return "0"
	case C1:
		return "1"
	}
	return "R"
}

// EdgeFilter is the initial-value-dependency mitigation of §3.3.4: the
// failure activates only on a rising or falling transition of X, instead
// of on any change.
type EdgeFilter int

// Edge filters.
const (
	AnyChange EdgeFilter = iota
	RisingEdge
	FallingEdge
)

func (e EdgeFilter) String() string {
	switch e {
	case RisingEdge:
		return "rise"
	case FallingEdge:
		return "fall"
	}
	return "any"
}

// Spec identifies one modeled failure.
type Spec struct {
	Type  sta.PathType   // Setup or Hold
	Start netlist.CellID // X: the launching flip-flop
	End   netlist.CellID // Y: the capturing flip-flop
	C     CValue
	Edge  EdgeFilter
}

// Name renders a stable human-readable identifier.
func (s Spec) Name(nl *netlist.Netlist) string {
	return fmt.Sprintf("%s:%s->%s,C=%s,%s", s.Type,
		nl.Cells[s.Start].Name, nl.Cells[s.End].Name, s.C, s.Edge)
}

// activation builds the "violation fires this cycle" condition and the
// faulty-value net. It appends cells to b (which was seeded from the
// original netlist) and returns (active, cNet).
//
// For a setup violation the condition compares X(t) with X(t-1), held in
// an added history flip-flop (Figure 5's $12). For a hold violation it
// compares X(t) with X(t+1), which is simply X's current D input
// (Figure 6). xQ/xD let the caller redirect the comparison to shadow
// copies of X.
func activation(b *netlist.Builder, orig *netlist.Netlist, spec Spec, xQ, xD netlist.NetID) (active, cNet netlist.NetID) {
	x := orig.Cells[spec.Start]

	switch spec.C {
	case C0:
		cNet = b.Add(cell.TIE0)
	case C1:
		cNet = b.Add(cell.TIE1)
	case CRandom:
		cNet = addLFSR(b, orig.ClockRoot)
	}

	if spec.Start == spec.End {
		// Same-flip-flop path: Y is metastable and always samples C
		// (§3.3.1). Active unconditionally.
		return b.Add(cell.TIE1), cNet
	}

	var prev, cur netlist.NetID
	switch spec.Type {
	case sta.Setup:
		hist := b.AddDFFNamed(fmt.Sprintf("fault_hist_%s", orig.Cells[spec.Start].Name), xQ, x.Clk, x.Init)
		prev, cur = hist, xQ
	case sta.Hold:
		prev, cur = xQ, xD
	}

	switch spec.Edge {
	case AnyChange:
		active = b.Add(cell.XOR2, prev, cur)
	case RisingEdge:
		active = b.Add(cell.AND2, b.Add(cell.INV, prev), cur)
	case FallingEdge:
		active = b.Add(cell.AND2, prev, b.Add(cell.INV, cur))
	}
	return active, cNet
}

// addLFSR embeds a 16-bit Fibonacci LFSR (taps 16,14,13,11) clocked by
// the module's root clock and returns its output bit — the per-cycle
// pseudo-random C source for failing netlists.
func addLFSR(b *netlist.Builder, clk netlist.NetID) netlist.NetID {
	const seed = 0xACE1
	qs := make([]netlist.NetID, 16)
	ffs := make([]netlist.CellID, 16)
	// Placeholder D nets until the flip-flops exist to be chained; they
	// stay allocated, so net numbering in the exported Verilog is stable.
	ds := make([]netlist.NetID, 16)
	for i := range ds {
		ds[i] = b.Net()
	}
	for i := range qs {
		ffs[i] = netlist.CellID(b.NumCells())
		qs[i] = b.AddDFFNamed(fmt.Sprintf("fault_lfsr_%d", i), ds[i], clk, seed>>uint(i)&1 == 1)
	}
	fb := b.Add(cell.XOR2,
		b.Add(cell.XOR2, qs[15], qs[13]),
		b.Add(cell.XOR2, qs[12], qs[10]))
	// Shift register: bit0 <- feedback, bit i <- bit i-1.
	for i := 15; i >= 1; i-- {
		b.RewireInput(ffs[i], 0, qs[i-1])
	}
	b.RewireInput(ffs[0], 0, fb)
	return qs[15]
}

// FailingNetlist produces the §3.3.2 "failing netlist": a clone of the
// module whose endpoint flip-flop Y misbehaves per the failure model.
// The result has the same ports as the original and can be dropped into
// the CPU simulation in place of the healthy unit.
func FailingNetlist(orig *netlist.Netlist, spec Spec) *netlist.Netlist {
	b := netlist.NewBuilderFrom(orig)
	instrument(b, orig, spec)
	for _, p := range orig.Outputs {
		b.OutputBus(p.Name, p.Bits)
	}
	nl := b.MustBuild()
	nl.Name = orig.Name + "_failing"
	return nl
}

// instrument adds one failure site to a builder seeded from orig: Y's D
// input becomes (active ? C : D_orig).
func instrument(b *netlist.Builder, orig *netlist.Netlist, spec Spec) {
	x := orig.Cells[spec.Start]
	y := orig.Cells[spec.End]
	active, cNet := activation(b, orig, spec, x.Out, x.In[0])
	faulty := b.AddNamed(cell.MUX2, fmt.Sprintf("fault_mux_%s", y.Name), y.In[0], cNet, active)
	b.RewireInput(spec.End, 0, faulty)
}

// FailingNetlistMulti produces a failing netlist with several
// independent failure sites active at once — the multi-fault silicon a
// test suite meets in the field, as opposed to the single-fault models
// the lifting pipeline targets. Each spec instruments its own capturing
// flip-flop against the *original* circuit, so the activation conditions
// are independent; endpoints must therefore be distinct (a second rewire
// of the same Y would silently drop the first fault's MUX).
func FailingNetlistMulti(orig *netlist.Netlist, specs ...Spec) (*netlist.Netlist, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("fault: FailingNetlistMulti needs at least one spec")
	}
	seen := make(map[netlist.CellID]bool, len(specs))
	b := netlist.NewBuilderFrom(orig)
	for _, spec := range specs {
		if seen[spec.End] {
			return nil, fmt.Errorf("fault: duplicate endpoint %s in multi-fault spec",
				orig.Cells[spec.End].Name)
		}
		seen[spec.End] = true
		instrument(b, orig, spec)
	}
	for _, p := range orig.Outputs {
		b.OutputBus(p.Name, p.Bits)
	}
	nl, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("fault: multi-fault netlist: %w", err)
	}
	nl.Name = orig.Name + "_failing_multi"
	return nl, nil
}
