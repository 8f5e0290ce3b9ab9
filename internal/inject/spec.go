// Package inject is the fault-injection plane and campaign engine: it
// stress-tests a lifted test suite against fault universes the Vega
// pipeline did NOT target. The lifting pipeline (internal/lift) proves
// detection for the STA-predicted aging-prone pairs; this package asks
// the complementary robustness question — what happens on silicon whose
// defects fall outside that prediction? Four fault classes are modeled:
//
//   - StuckAt: a timing-violation failure model on an arbitrary DFF pair
//     *outside* the STA violation set (the §3.3.2 failing-netlist model,
//     as an engine overlay).
//   - Transient: a single-cycle bit flip on one execution-unit result
//     (an SEU on the output latch), injected behaviourally.
//   - Intermittent: LFSR-gated recurring bit flips on unit results
//     (marginal silicon that fails sporadically).
//   - MultiFault: two independent stuck-at sites active at once.
//
// The same engine also answers the pipeline's own question: Tables 6/7
// (core.TestQuality, core.VsRandom) replay a suite against the pairs it
// WAS built for by submitting one StuckAt spec per (failure mode, pair).
//
// Every injection is identified by a Spec whose string form is its
// checkpoint and dedup key.
package inject

import (
	"fmt"
	"strings"

	"repro/internal/fault"
	"repro/internal/sta"
)

// Class is the injected fault's universe.
type Class int

// Fault classes.
const (
	StuckAt Class = iota
	Transient
	Intermittent
	MultiFault
)

func (c Class) String() string {
	switch c {
	case StuckAt:
		return "stuck"
	case Transient:
		return "transient"
	case Intermittent:
		return "intermittent"
	case MultiFault:
		return "multi"
	}
	return fmt.Sprintf("class(%d)", int(c))
}

// Classes lists every fault class in report order.
func Classes() []Class { return []Class{StuckAt, Transient, Intermittent, MultiFault} }

// Spec identifies one injection. Which fields are meaningful depends on
// Class: netlist classes (StuckAt, MultiFault) carry failure-model
// specs; behavioural classes (Transient, Intermittent) carry the flip
// parameters.
type Spec struct {
	Class Class
	Unit  string // "ALU" or "FPU"

	// Faults are the netlist failure sites: exactly 1 for StuckAt, >= 2
	// with pairwise-distinct endpoints for MultiFault.
	Faults []fault.Spec

	// OpIndex is the zero-based unit-operation count at which a
	// Transient injection flips Bit of the result.
	OpIndex uint32
	// Bit is the flipped result bit (Transient and Intermittent).
	Bit uint8
	// Seed is the Intermittent gating LFSR's nonzero 16-bit seed.
	Seed uint16
	// Period gates Intermittent flips: the flip fires on the ops where
	// lfsr_state mod Period == 0.
	Period uint16
}

// String renders the stable campaign identifier, e.g.
//
//	stuck:ALU:s,12,45,1,any
//	multi:FPU:s,12,45,0,any;h,3,9,R,rise
//	transient:ALU:37,12
//	intermittent:ALU:5,44193,7
func (s Spec) String() string {
	switch s.Class {
	case StuckAt, MultiFault:
		parts := make([]string, len(s.Faults))
		for i, f := range s.Faults {
			parts[i] = faultString(f)
		}
		return fmt.Sprintf("%s:%s:%s", s.Class, s.Unit, strings.Join(parts, ";"))
	case Transient:
		return fmt.Sprintf("%s:%s:%d,%d", s.Class, s.Unit, s.OpIndex, s.Bit)
	case Intermittent:
		return fmt.Sprintf("%s:%s:%d,%d,%d", s.Class, s.Unit, s.Bit, s.Seed, s.Period)
	}
	return fmt.Sprintf("invalid:%s", s.Unit)
}

func faultString(f fault.Spec) string {
	ty := "s"
	if f.Type == sta.Hold {
		ty = "h"
	}
	return fmt.Sprintf("%s,%d,%d,%s,%s", ty, f.Start, f.End, f.C, f.Edge)
}
