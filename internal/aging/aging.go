// Package aging models transistor aging: the reaction-diffusion BTI model
// of the paper's Eq. 1 mapped to switching-delay degradation per standard
// cell. It replaces the paper's SPICE characterization step — the paper
// itself reduces that step to "delay degradation as a function of signal
// probability and time" (its Figure 4), which this package computes
// analytically and tabulates as an aging-aware timing library.
//
// Stress model: BTI stress on a cell's pull-up network accumulates while
// the cell's output idles low, so cells with a low signal probability age
// fastest (§2.3.1 of the paper; its Table 1 calls SP 0.13 "particularly
// extreme"). Even a cell that toggles constantly has each device under
// stress half the time, so degradation has a nonzero floor — the paper's
// Figure 8 shows the same floor at a 1.9% delay increase.
package aging

import (
	"math"

	"repro/internal/cell"
)

// Boltzmann constant in eV/K.
const kBoltzmann = 8.617333262e-5

// Model holds the calibration of the reaction-diffusion aging model.
type Model struct {
	// DegMin is the fractional delay degradation of an average-
	// sensitivity cell at SP=1 (minimal stress) after Lifetime years.
	DegMin float64
	// DegMax is the fractional degradation at SP=0 (maximal stress).
	DegMax float64
	// Beta is the stress exponent: degradation scales with
	// (1-SP)^Beta between the DegMin and DegMax anchors.
	Beta float64
	// TimeExp is the time-power-law exponent of the reaction-diffusion
	// model; 1/6 per Eq. 1.
	TimeExp float64
	// Lifetime is the reference lifetime in years at which DegMin/DegMax
	// are anchored (10 years, the mission-critical assumption of §3.2.2).
	Lifetime float64
	// TempK and RefTempK scale degradation with operating temperature
	// via the Arrhenius factor exp(Ea/k·(1/RefTempK - 1/TempK)).
	TempK    float64
	RefTempK float64
	// EaEV is the activation energy in eV.
	EaEV float64
}

// Default returns the model calibrated to the paper's observations: a
// 1.9%-6% degradation band at 10 years for a 28nm library, with the
// worst-case (hot) corner equal to the reference.
func Default() *Model {
	return &Model{
		DegMin:   0.019,
		DegMax:   0.062,
		Beta:     1.0,
		TimeExp:  1.0 / 6.0,
		Lifetime: 10,
		TempK:    398, // 125C signoff corner
		RefTempK: 398,
		EaEV:     0.49,
	}
}

// kindSensitivity captures that cell types degrade at different rates
// (different stacking, drive strength and internal node stress). Clock
// cells are high-drive and particularly exposed — the source of aged
// clock skew.
var kindSensitivity = [cell.NumKinds]float64{
	cell.TIE0: 0, cell.TIE1: 0,
	cell.BUF: 0.95, cell.INV: 0.85,
	cell.AND2: 1.0, cell.OR2: 1.0,
	cell.NAND2: 0.9, cell.NOR2: 0.95,
	cell.XOR2: 1.1, cell.XNOR2: 1.1,
	cell.MUX2: 1.05, cell.AOI21: 0.95, cell.OAI21: 0.95,
	// High-drive clock cells are the most exposed: asymmetric clock-tree
	// aging is a first-order skew mechanism (Gabbay et al., DVCON'23,
	// cited by the paper as the source of its hold violations).
	cell.DFF: 0.9, cell.CLKBUF: 2.2, cell.CLKGATE: 2.2,
}

// Sensitivity returns the relative aging sensitivity of a cell kind.
func Sensitivity(k cell.Kind) float64 { return kindSensitivity[k] }

// Stress converts a signal probability into a normalized BTI stress in
// [0, 1]: the fraction of lifetime the cell's pull-up spends under bias.
func (m *Model) Stress(sp float64) float64 {
	if sp < 0 {
		sp = 0
	}
	if sp > 1 {
		sp = 1
	}
	return 1 - sp
}

// arrhenius is the temperature acceleration factor relative to the
// reference temperature.
func (m *Model) arrhenius() float64 {
	return math.Exp(m.EaEV / kBoltzmann * (1/m.RefTempK - 1/m.TempK))
}

// DeltaVthNorm returns the normalized threshold-voltage shift (1.0 = the
// shift that produces DegMax delay degradation for a unit-sensitivity
// cell at the reference lifetime): stress^Beta · (t/Lifetime)^TimeExp,
// temperature-accelerated.
func (m *Model) DeltaVthNorm(sp, years float64) float64 {
	if years <= 0 {
		return 0
	}
	s := m.Stress(sp)
	return math.Pow(s, m.Beta) * math.Pow(years/m.Lifetime, m.TimeExp) * m.arrhenius()
}

// DelayFactor returns the multiplicative delay-degradation factor (>= 1)
// of a cell of kind k with signal probability sp after the given number
// of years. The factor interpolates between the DegMin floor (every
// switching device is stressed half the time) and the DegMax ceiling
// (statically stressed), scaled by the cell kind's sensitivity.
func (m *Model) DelayFactor(k cell.Kind, sp, years float64) float64 {
	if years <= 0 {
		return 1
	}
	return m.delayFactorArr(k, sp, years, m.arrhenius())
}

// delayFactorArr is DelayFactor with the Arrhenius factor supplied by the
// caller, so bulk characterization (NewLibrary, NewCornerGrid) computes
// the math.Exp once per corner instead of once per grid point. The
// expression is kept term-for-term identical to the inline form so
// hoisting never changes a single bit of the result.
func (m *Model) delayFactorArr(k cell.Kind, sp, years, arr float64) float64 {
	if years <= 0 {
		return 1
	}
	timeTemp := math.Pow(years/m.Lifetime, m.TimeExp) * arr
	frac := m.DegMin + (m.DegMax-m.DegMin)*math.Pow(m.Stress(sp), m.Beta)
	return 1 + frac*timeTemp*Sensitivity(k)
}

// Recovery returns the fraction of accumulated degradation remaining
// after the stress is removed for recoveryYears (partial BTI recovery,
// §2.3.3). The fast-recovery component anneals on a square-root-of-time
// profile; roughly half of the shift is permanent.
func (m *Model) Recovery(stressYears, recoveryYears float64) float64 {
	if recoveryYears <= 0 || stressYears <= 0 {
		return 1
	}
	recoverable := 0.5
	r := math.Sqrt(recoveryYears / (recoveryYears + stressYears))
	return 1 - recoverable*r
}
