// Package sta implements aging-aware static timing analysis over
// netlists: block-based arrival-time propagation, setup and hold checks
// against per-flip-flop clock arrival (including aged clock-tree skew),
// worst-negative-slack reporting, and exhaustive enumeration of
// violating paths with unique start/end pair filtering — the paper's
// Aging Analysis phase (§3.2.2) and the producer of its Table 3.
//
// Conservatism matches industrial signoff: launch clock and data use
// late (maximum, aged) delays against an early capture clock for setup,
// and early delays against a late capture clock for hold, with no common
// path pessimism removal.
package sta

import (
	"math"
	"sort"

	"repro/internal/aging"
	"repro/internal/cell"
	"repro/internal/engine"
	"repro/internal/netlist"
)

// Config describes one corner of an analysis: what a Result records it
// was computed under, and what WorstPath re-times.
type Config struct {
	// PeriodPs is the clock period constraint.
	PeriodPs float64
	// Scale multiplies every timing quantity (delays and constraint
	// windows) — the synthesis-margin calibration knob. Zero means 1.
	Scale float64
	// Aged is the aging-aware timing library. If nil, the analysis runs
	// fresh (nominal delays) using Base.
	Aged *aging.Library
	// Base is the nominal library, required when Aged is nil.
	Base *cell.Library
	// Profile supplies per-net signal probabilities for the aged lookup.
	// Required when Aged is non-nil.
	Profile *engine.Profile
	// MaxPaths caps violating-path enumeration (0 means 200000).
	MaxPaths int
	// PerEndpoint caps the paths enumerated into any single endpoint,
	// like the nworst limit of a signoff tool's timing report (0 means
	// 400).
	PerEndpoint int
}

// PathType distinguishes the two timing checks.
type PathType int

// Setup and hold checks (§2.3.2).
const (
	Setup PathType = iota
	Hold
)

func (t PathType) String() string {
	if t == Hold {
		return "hold"
	}
	return "setup"
}

// Pair identifies a signal path by its launching and capturing flip-flops
// — the unit the paper deduplicates on before error lifting (§5.2.1).
type Pair struct {
	Start, End netlist.CellID
}

// PairSummary aggregates all violating paths sharing a start/end pair
// and check type.
type PairSummary struct {
	Pair
	Type       PathType
	Paths      int
	WorstSlack float64
}

// pairKey keys pair summaries. The type is part of the key: a pair can
// violate both setup and hold (skewed capture clock plus a wide min/max
// delay spread), and folding those into one summary would mix setup and
// hold slacks in WorstSlack and report a first-seen Type.
type pairKey struct {
	Pair
	Type PathType
}

// Result is the outcome of one STA run.
type Result struct {
	Config Config

	// WNSSetup/WNSHold are worst slacks in ps (positive = met). They are
	// +Inf when no path of that kind exists.
	WNSSetup float64
	WNSHold  float64

	// NumSetupViolations/NumHoldViolations count violating paths
	// (possibly truncated at MaxPaths; Truncated reports that).
	NumSetupViolations int
	NumHoldViolations  int
	Truncated          bool

	// Pairs holds per start/end pair aggregates for violating paths,
	// worst first.
	Pairs []PairSummary

	// Factor is the aging delay factor applied to each cell (1.0 when
	// fresh) — the data behind the paper's Figure 8. It is read-only: a
	// batched Result shares it with its Annotation and every other
	// Result analyzed from it.
	Factor []float64
}

const inf = math.MaxFloat64

// sortPairs orders pair summaries worst-first with a total tiebreak
// (slack, start, end, type) so report order never depends on map
// iteration. Shared by the batched engine and its scalar oracle —
// identical order is part of their bit-identity contract.
func sortPairs(ps []PairSummary) {
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].WorstSlack != ps[j].WorstSlack {
			return ps[i].WorstSlack < ps[j].WorstSlack
		}
		if ps[i].Start != ps[j].Start {
			return ps[i].Start < ps[j].Start
		}
		if ps[i].End != ps[j].End {
			return ps[i].End < ps[j].End
		}
		return ps[i].Type < ps[j].Type
	})
}

// CriticalDelay returns the largest "effective" endpoint delay of a fresh
// (unaged, unscaled) analysis: launch clock + clk-to-q + combinational
// delay − capture clock + setup, i.e. the minimum period at which the
// design just meets setup timing. It is used to calibrate the synthesis
// margin (see Calibrate).
func CriticalDelay(nl *netlist.Netlist, base *cell.Library) float64 {
	// One fresh corner of the batched evaluation: every factor is exactly
	// 1 and the scale is 1, so each delay is bitwise the library's.
	a := Annotate(nl, BatchConfig{Base: base}, make([]Corner, 1))
	st := a.evaluate()
	defer st.release()
	worst := 0.0
	for _, e := range a.g.endpoints {
		if am := st.arrMax[e.d]; am > negInf {
			worst = max(worst, am-st.clk[e.clk]+st.setup)
		}
	}
	return worst
}

// Calibrate computes the global delay scale that makes the fresh design
// meet its period with exactly the given relative margin (fresh WNS =
// margin × period). This models the synthesis/P&R flow, which optimizes
// a design until it just meets its frequency target — the reason a
// freshly-deployed circuit passes signoff but sits close enough to the
// edge for aging to push paths over (§5.2.1).
func Calibrate(nl *netlist.Netlist, base *cell.Library, periodPs, margin float64) float64 {
	crit := CriticalDelay(nl, base)
	if crit <= 0 {
		return 1
	}
	return periodPs * (1 - margin) / crit
}
