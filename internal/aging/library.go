package aging

import (
	"math"

	"repro/internal/cell"
)

// Library is the pre-computed aging-aware timing library: for every cell
// kind it tabulates the delay-degradation factor over a grid of signal
// probabilities, at a fixed lifetime. The paper pre-computes the same
// characterization once per standard-cell library to accelerate the
// aging-aware STA (§3.2.2); STA then looks cells up by their profiled SP.
type Library struct {
	Base  *cell.Library
	Model *Model
	Years float64

	spGrid  []float64
	factors [cell.NumKinds][]float64
}

// gridPoints is the SP characterization resolution.
const gridPoints = 41

// spFracGrid tabulates the SP grid and the corner-independent stress
// fraction DegMin + (DegMax-DegMin)·stress^Beta at each grid point. The
// fraction depends only on the model's degradation anchors, never on the
// lifetime or temperature, so one tabulation serves every corner of a
// NewCornerGrid.
func spFracGrid(m *Model) (spGrid, frac []float64) {
	spGrid = make([]float64, gridPoints)
	frac = make([]float64, gridPoints)
	for i := range spGrid {
		sp := float64(i) / float64(gridPoints-1)
		spGrid[i] = sp
		frac[i] = m.DegMin + (m.DegMax-m.DegMin)*math.Pow(m.Stress(sp), m.Beta)
	}
	return spGrid, frac
}

// characterize fills one library from pre-tabulated stress fractions.
// The per-point expression mirrors Model.delayFactorArr term for term
// (1 + frac·timeTemp·sensitivity), so the result is bit-identical to
// calling DelayFactor at every grid point.
func characterize(base *cell.Library, m *Model, years float64, spGrid, frac []float64) *Library {
	l := &Library{Base: base, Model: m, Years: years, spGrid: spGrid}
	var timeTemp float64
	if years > 0 {
		timeTemp = math.Pow(years/m.Lifetime, m.TimeExp) * m.arrhenius()
	}
	slab := make([]float64, cell.NumKinds*gridPoints)
	for k := 0; k < cell.NumKinds; k++ {
		row := slab[k*gridPoints : (k+1)*gridPoints : (k+1)*gridPoints]
		if years > 0 {
			s := Sensitivity(cell.Kind(k))
			for i := range row {
				row[i] = 1 + frac[i]*timeTemp*s
			}
		} else {
			for i := range row {
				row[i] = 1
			}
		}
		l.factors[k] = row
	}
	return l
}

// NewLibrary characterizes the base timing library against the aging
// model at the given lifetime.
func NewLibrary(base *cell.Library, m *Model, years float64) *Library {
	spGrid, frac := spFracGrid(m)
	return characterize(base, m, years, spGrid, frac)
}

// NewCornerGrid characterizes the base library at every corner (an
// assumed lifetime each) in a single pass, the library-side half of the
// batched multi-corner STA: the model's degradation factor is separable
// into an SP-dependent stress fraction (shared by every corner) and a
// per-corner time-temperature scalar, so K corners cost one stress
// tabulation plus one Pow/Exp pair per corner instead of K independent
// NewLibrary characterizations. Each produced library is bit-identical
// to NewLibrary run at the same lifetime (asserted by
// TestCornerGridMatchesNewLibrary); corners with years <= 0 are fresh
// and get a nil library.
func NewCornerGrid(base *cell.Library, m *Model, years []float64) []*Library {
	libs := make([]*Library, len(years))
	spGrid, frac := spFracGrid(m)
	for ci, yr := range years {
		if yr > 0 {
			libs[ci] = characterize(base, m, yr, spGrid, frac)
		}
	}
	return libs
}

// Factor returns the tabulated delay-degradation factor for kind k at
// signal probability sp, with linear interpolation between grid points.
func (l *Library) Factor(k cell.Kind, sp float64) float64 {
	if sp <= 0 {
		return l.factors[k][0]
	}
	if sp >= 1 {
		return l.factors[k][gridPoints-1]
	}
	// The conversions round the position and both products, so no
	// compiler fuses them (arm64 would, to FNMSUBD and FMADDD): the
	// batched STA's interpolation rounds the same way, and bit-identity
	// with it must not rest on two call sites fusing alike.
	pos := float64(sp * float64(gridPoints-1))
	i := int(pos)
	frac := pos - float64(i)
	return float64(l.factors[k][i]*(1-frac)) + float64(l.factors[k][i+1]*frac)
}

// FactorRow exposes the tabulated factor row for kind k (one value per
// SP grid point). The batched STA hoists the grid position and
// interpolation weights out of its per-corner loop and indexes rows
// directly; the interpolation expression must mirror Factor term for
// term. Callers must not mutate the row.
func (l *Library) FactorRow(k cell.Kind) []float64 { return l.factors[k] }

// AgedTiming returns the cell timing with aged propagation delays. Both
// the minimum and maximum delays slow by the same factor (the whole cell
// drives weaker); constraint windows (setup/hold) are unchanged — they
// are properties of the capturing flip-flop's sampling circuit that the
// paper's model leaves nominal.
func (l *Library) AgedTiming(k cell.Kind, sp float64) cell.Timing {
	t := l.Base.Timing[k]
	f := l.Factor(k, sp)
	t.DelayMin *= f
	t.DelayMax *= f
	return t
}
