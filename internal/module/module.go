// Package module defines the common shape of a hardware module under
// analysis (the paper analyzes the ALU and the FPU of the CV32E40P). A
// Module bundles the synthesized netlist with the metadata every workflow
// phase needs: the clock tree for skew analysis, the pipeline latency and
// port protocol for trace-to-instruction lifting, the golden behavioural
// model for expected-value computation, and the operation-validity
// predicate that becomes the BMC assume-property.
package module

import (
	"repro/internal/netlist"
	"repro/internal/synth"
)

// Port-name conventions shared by all modules. Every module has:
//
//	inputs:  clk, in_valid (1), op (OpWidth), a (32), b (32)
//	outputs: out_valid (1), result (32), flags (FlagWidth)
//
// Inputs presented with in_valid=1 at cycle t produce out_valid=1 and the
// corresponding result/flags at cycle t+Latency.
const (
	PortInValid  = "in_valid"
	PortOp       = "op"
	PortA        = "a"
	PortB        = "b"
	PortOutValid = "out_valid"
	PortResult   = "result"
	PortFlags    = "flags"
)

// Unit executes one operation of an execution unit: the seam between the
// CPU model and whatever stands in for its ALU or FPU — a gate-level
// Driver, the golden model, or a wrapper around either that records,
// checks or corrupts the responses. ok=false means the unit never
// raised out_valid (a hung handshake).
type Unit interface {
	Exec(op, a, b uint32) (result, flags uint32, ok bool)
}

// GoldenFunc is a unit's behavioural model: the architectural result and
// flags of one operation.
type GoldenFunc func(op, a, b uint32) (result, flags uint32)

// Exec makes the golden model a Unit that always completes.
func (g GoldenFunc) Exec(op, a, b uint32) (uint32, uint32, bool) {
	r, f := g(op, a, b)
	return r, f, true
}

// Module is a synthesized hardware unit plus its analysis metadata.
type Module struct {
	Name    string // "ALU" or "FPU"
	Netlist *netlist.Netlist
	Tree    *synth.ClockTree

	Latency   int     // input-to-output pipeline depth in cycles
	OpWidth   int     // width of the op port
	FlagWidth int     // width of the flags port
	PeriodPs  float64 // target clock period (ps)

	// SynthMargin is the relative slack margin the synthesis/P&R flow
	// achieved at signoff (fresh WNS = SynthMargin × PeriodPs). STA
	// calibration turns it into a global delay scale; timing-critical
	// blocks close with thinner margins and are therefore more exposed
	// to aging.
	SynthMargin float64

	// Golden computes the architectural result and flags for an
	// operation; it is the reference the lifted test cases check against.
	Golden GoldenFunc

	// OpValid reports whether an op encoding is legal. Illegal encodings
	// are excluded from BMC traces via an assume-property, mirroring the
	// paper's §3.3.3 input restrictions.
	OpValid func(op uint32) bool

	// StickyFlags reports whether the flags port accumulates (ORs) across
	// operations architecturally (true for the FPU's fcsr flags). This is
	// what makes some FPU failures observable only through an
	// already-set status flag — the paper's "FC" outcome.
	StickyFlags bool
}

// FrequencyMHz converts the period target to MHz for reports.
func (m *Module) FrequencyMHz() float64 { return 1e6 / m.PeriodPs }

// Clone returns a module whose netlist is a deep structural copy, for
// callers that want hard isolation between concurrent instrumentation
// passes. The metadata, golden model, and clock tree are shared: they
// are immutable after Build. Note that instrumentation itself never
// mutates its source netlist (it builds through netlist.NewBuilderFrom,
// which copies), so sharing one Module across the worker pool is safe;
// Clone exists for defense in depth and for tests that prove the
// concurrency invariants hold.
func (m *Module) Clone() *Module {
	c := *m
	c.Netlist = m.Netlist.Clone()
	return &c
}
