// Package guard implements cheap always-on runtime invariants derived
// from arithmetic algebra — the complementary detection layer to the
// paper's scheduled bottom-up tests. Scheduled tests only observe faults
// that strike inside the test window; the PR 5/6 escape census shows
// embedded FPU transients and intermittents escape at 100% for exactly
// that reason. Guards close the window: every in-flight production
// operation is checked against invariants that the correct unit provably
// satisfies (residue codes, sign/exponent algebra, NaN/Inf propagation,
// operand-swap symmetry), so a corrupted result is flagged on the cycle
// it is produced, regardless of when the fault struck.
//
// Guards exist at two levels:
//
//   - Behavioural: Guarded, an observe-only wrapper around a module.Unit
//     (see wrap.go). It never perturbs results, flags, handshakes, or
//     cycle counts — it only records verdicts, so a guarded campaign
//     replays bit-identically to an unguarded one.
//   - Gate-level: checker cells synthesized alongside the unit netlist
//     (alu.BuildGuarded / fpu.BuildGuarded), so engine and sta can cost
//     the silicon the checkers would occupy (see cost.go).
//
// The contract every guard must honour is zero false positives: for any
// architecturally-correct (op, a, b) -> (result, flags), Check returns
// true. The property harness in guard_test.go and FuzzGuardCleanRun
// enforce this over all embench workloads, directed special values, and
// random operand streams.
package guard

import (
	"fmt"
	"sort"
	"strings"
)

// Unit names match module.Module.Name for the two guarded units.
const (
	UnitALU = "ALU"
	UnitFPU = "FPU"
)

// A Guard is a single named invariant over one unit's operations.
// Check receives an architecturally-visible operation — the op selector,
// both operands, and the unit's result and flags — and reports whether
// the invariant holds. Ops a guard does not cover must return true.
type Guard struct {
	Name string // stable identifier, e.g. "res3"
	Unit string // UnitALU or UnitFPU
	Doc  string // one-line description for reports
	// Full marks guards that recompute the op completely (operand-swap
	// cross-checks): total single-fault coverage at roughly the cost of
	// a second unit.
	Full  bool
	Check func(op, a, b, result, flags uint32) bool
}

// Registry order is canonical: selection, per-guard accounting, and the
// first-fire tie-break all use this order, so reports are deterministic
// regardless of how a caller spells the guard list.
var registry = []Guard{
	{Name: "res3", Unit: UnitALU, Doc: "mod-3 residue code on ADD/SUB with carry/borrow correction", Check: aluRes3},
	{Name: "parity", Unit: UnitALU, Doc: "XOR parity: parity(r) == parity(a)^parity(b)", Check: aluParity},
	{Name: "bounds", Unit: UnitALU, Doc: "bit-domain bounds: AND subset, OR superset, shift zero/sign fill, SLT/SLTU booleans", Check: aluBounds},
	{Name: "flags", Unit: UnitALU, Doc: "comparison-flag consistency (eq excludes lt/ltu, sign-split lt vs ltu, SLT/SLTU agree with flags)", Check: aluFlagRules},
	{Name: "sign", Unit: UnitFPU, Doc: "sign algebra: FMUL sign=sa^sb, same-sign add keeps sign, FSGNJ recompute, compare/class encodings", Check: fpuSign},
	{Name: "exprange", Unit: UnitFPU, Doc: "exponent range bounds for FADD/FSUB/FMUL from decoded operand exponents", Check: fpuExpRange},
	{Name: "nanprop", Unit: UnitFPU, Doc: "NaN/Inf propagation: canonical QNaN, finite ops never produce NaN, flag implications", Check: fpuNaNProp},
	{Name: "addswap", Unit: UnitFPU, Doc: "a+b vs b+a softfloat cross-check on FADD/FSUB", Full: true, Check: fpuAddSwap},
	{Name: "mulswap", Unit: UnitFPU, Doc: "a*b vs b*a softfloat cross-check on FMUL", Full: true, Check: fpuMulSwap},
}

// All returns every guard registered for the unit, in canonical order.
func All(unit string) []Guard {
	var out []Guard
	for _, g := range registry {
		if g.Unit == unit {
			out = append(out, g)
		}
	}
	return out
}

// Names returns the canonical name list for the unit.
func Names(unit string) []string {
	var out []string
	for _, g := range All(unit) {
		out = append(out, g.Name)
	}
	return out
}

// Select resolves a name list against the unit's registry. Names may be
// given in any order; the returned set is in canonical registry order.
// The single name "all" selects every guard for the unit. Unknown or
// duplicate names are errors; an empty list selects nothing.
func Select(unit string, names []string) ([]Guard, error) {
	if len(names) == 1 && names[0] == "all" {
		return All(unit), nil
	}
	want := make(map[string]bool, len(names))
	for _, n := range names {
		n = strings.TrimSpace(n)
		if n == "" {
			continue
		}
		if want[n] {
			return nil, fmt.Errorf("guard: duplicate guard %q", n)
		}
		want[n] = true
	}
	var out []Guard
	for _, g := range All(unit) {
		if want[g.Name] {
			out = append(out, g)
			delete(want, g.Name)
		}
	}
	if len(want) > 0 {
		var missing []string
		for n := range want {
			missing = append(missing, n)
		}
		sort.Strings(missing)
		return nil, fmt.Errorf("guard: unknown %s guard(s) %s (have %s)",
			unit, strings.Join(missing, ","), strings.Join(Names(unit), ","))
	}
	return out, nil
}

func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}
