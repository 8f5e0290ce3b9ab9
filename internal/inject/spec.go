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
// Every injection is identified by a Spec with a stable string codec so
// campaigns can be checkpointed, resumed, and fuzzed.
package inject

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/fault"
	"repro/internal/netlist"
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

// ParseSpec decodes a Spec from its String form, validating structure
// (netlist bounds are checked later, at Attach time, against the actual
// module).
func ParseSpec(str string) (Spec, error) {
	parts := strings.SplitN(str, ":", 3)
	if len(parts) != 3 {
		return Spec{}, fmt.Errorf("inject: spec %q: want class:unit:params", str)
	}
	var s Spec
	switch parts[0] {
	case "stuck":
		s.Class = StuckAt
	case "transient":
		s.Class = Transient
	case "intermittent":
		s.Class = Intermittent
	case "multi":
		s.Class = MultiFault
	default:
		return Spec{}, fmt.Errorf("inject: spec %q: unknown class %q", str, parts[0])
	}
	s.Unit = parts[1]
	if s.Unit != "ALU" && s.Unit != "FPU" {
		return Spec{}, fmt.Errorf("inject: spec %q: unknown unit %q", str, s.Unit)
	}

	switch s.Class {
	case StuckAt, MultiFault:
		for _, fs := range strings.Split(parts[2], ";") {
			f, err := parseFault(fs)
			if err != nil {
				return Spec{}, fmt.Errorf("inject: spec %q: %w", str, err)
			}
			s.Faults = append(s.Faults, f)
		}
		if s.Class == StuckAt && len(s.Faults) != 1 {
			return Spec{}, fmt.Errorf("inject: spec %q: stuck wants exactly one fault site", str)
		}
		if s.Class == MultiFault {
			if len(s.Faults) < 2 {
				return Spec{}, fmt.Errorf("inject: spec %q: multi wants >= 2 fault sites", str)
			}
			seen := make(map[netlist.CellID]bool)
			for _, f := range s.Faults {
				if seen[f.End] {
					return Spec{}, fmt.Errorf("inject: spec %q: duplicate endpoint %d", str, f.End)
				}
				seen[f.End] = true
			}
		}
	case Transient:
		fields, err := uintFields(parts[2], 2)
		if err != nil {
			return Spec{}, fmt.Errorf("inject: spec %q: %w", str, err)
		}
		if fields[0] > 1<<30 || fields[1] > 31 {
			return Spec{}, fmt.Errorf("inject: spec %q: op index or bit out of range", str)
		}
		s.OpIndex, s.Bit = uint32(fields[0]), uint8(fields[1])
	case Intermittent:
		fields, err := uintFields(parts[2], 3)
		if err != nil {
			return Spec{}, fmt.Errorf("inject: spec %q: %w", str, err)
		}
		if fields[0] > 31 || fields[1] == 0 || fields[1] > 0xFFFF || fields[2] < 2 || fields[2] > 0xFFFF {
			return Spec{}, fmt.Errorf("inject: spec %q: bit/seed/period out of range", str)
		}
		s.Bit, s.Seed, s.Period = uint8(fields[0]), uint16(fields[1]), uint16(fields[2])
	}
	return s, nil
}

func parseFault(str string) (fault.Spec, error) {
	p := strings.Split(str, ",")
	if len(p) != 5 {
		return fault.Spec{}, fmt.Errorf("fault site %q: want type,start,end,C,edge", str)
	}
	var f fault.Spec
	switch p[0] {
	case "s":
		f.Type = sta.Setup
	case "h":
		f.Type = sta.Hold
	default:
		return fault.Spec{}, fmt.Errorf("fault site %q: unknown check type %q", str, p[0])
	}
	start, err1 := strconv.ParseUint(p[1], 10, 31)
	end, err2 := strconv.ParseUint(p[2], 10, 31)
	if err1 != nil || err2 != nil {
		return fault.Spec{}, fmt.Errorf("fault site %q: bad cell id", str)
	}
	f.Start, f.End = netlist.CellID(start), netlist.CellID(end)
	switch p[3] {
	case "0":
		f.C = fault.C0
	case "1":
		f.C = fault.C1
	case "R":
		f.C = fault.CRandom
	default:
		return fault.Spec{}, fmt.Errorf("fault site %q: unknown C %q", str, p[3])
	}
	switch p[4] {
	case "any":
		f.Edge = fault.AnyChange
	case "rise":
		f.Edge = fault.RisingEdge
	case "fall":
		f.Edge = fault.FallingEdge
	default:
		return fault.Spec{}, fmt.Errorf("fault site %q: unknown edge %q", str, p[4])
	}
	return f, nil
}

func uintFields(str string, n int) ([]uint64, error) {
	p := strings.Split(str, ",")
	if len(p) != n {
		return nil, fmt.Errorf("params %q: want %d comma-separated integers", str, n)
	}
	out := make([]uint64, n)
	for i, s := range p {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("params %q: %v", str, err)
		}
		out[i] = v
	}
	return out, nil
}
