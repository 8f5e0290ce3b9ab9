package guard

import (
	"fmt"

	"repro/internal/alu"
	"repro/internal/cell"
	"repro/internal/fpu"
	"repro/internal/module"
	"repro/internal/sta"
)

// GateCost is the synthesized silicon footprint of one gate-level
// checker: the marginal cell/register count it adds on top of the
// previously-enabled guards (canonical order, so shared decode
// predicates are attributed to the first guard that needs them) and the
// fresh setup-slack impact of the cumulative guarded netlist.
type GateCost struct {
	Unit  string `json:"unit"`
	Guard string `json:"guard"`
	// Marginal cells over the previous cumulative build.
	Cells int `json:"cells"`
	DFFs  int `json:"dffs"`
	// CellsPct is the marginal cell count relative to the base netlist.
	CellsPct float64 `json:"cells_pct"`
	// WNSSetupPs is the fresh (unaged) setup WNS of the cumulative
	// guarded netlist at the unit's period, using the base netlist's
	// calibrated scale so the numbers are comparable across builds.
	WNSSetupPs float64 `json:"wns_setup_ps"`
	// WNSDeltaPs is base WNS minus cumulative WNS: positive means the
	// checkers cost timing slack.
	WNSDeltaPs float64 `json:"wns_delta_ps"`
}

// unitBuilders maps a unit name to its base/guarded synthesis entry
// points and canonical guard list.
func unitBuilders(unit string) (func() *module.Module, func(...string) *module.Module, []string, error) {
	switch unit {
	case UnitALU:
		return alu.Build, alu.BuildGuarded, alu.GuardNames, nil
	case UnitFPU:
		return fpu.Build, fpu.BuildGuarded, fpu.GuardNames, nil
	}
	return nil, nil, nil, fmt.Errorf("guard: unknown unit %q", unit)
}

// UnitGateCosts synthesizes the unit once per guard (cumulatively, in
// canonical order) and diffs each build against the previous one,
// producing the per-guard area and timing overhead the campaign reports
// and BENCH_guard.json record. The base netlist's calibrated STA scale
// is reused for every build.
func UnitGateCosts(unit string) ([]GateCost, error) {
	build, buildGuarded, names, err := unitBuilders(unit)
	if err != nil {
		return nil, err
	}
	base := build()
	lib := cell.Lib28()
	scale := sta.Calibrate(base.Netlist, lib, base.PeriodPs, base.SynthMargin)
	cfg := sta.BatchConfig{PeriodPs: base.PeriodPs, Scale: scale, Base: lib}
	fresh := []sta.Corner{{}}
	baseWNS := sta.AnalyzeCorners(base.Netlist, cfg, fresh)[0].WNSSetup
	baseStats := base.Netlist.Stats()

	prev := baseStats
	out := make([]GateCost, 0, len(names))
	for i := range names {
		m := buildGuarded(names[:i+1]...)
		st := m.Netlist.Stats()
		wns := sta.AnalyzeCorners(m.Netlist, cfg, fresh)[0].WNSSetup
		out = append(out, GateCost{
			Unit:       unit,
			Guard:      names[i],
			Cells:      st.Cells - prev.Cells,
			DFFs:       st.DFFs - prev.DFFs,
			CellsPct:   100 * float64(st.Cells-prev.Cells) / float64(baseStats.Cells),
			WNSSetupPs: wns,
			WNSDeltaPs: baseWNS - wns,
		})
		prev = st
	}
	return out, nil
}
