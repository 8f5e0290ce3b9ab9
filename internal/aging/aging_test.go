package aging

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/cell"
)

func TestDelayFactorAnchors(t *testing.T) {
	m := Default()
	// A unit-sensitivity cell (AND2) at 10 years.
	lo := m.DelayFactor(cell.AND2, 1.0, 10)
	hi := m.DelayFactor(cell.AND2, 0.0, 10)
	if math.Abs(lo-1-m.DegMin) > 1e-12 {
		t.Errorf("SP=1 factor = %v, want 1+%v", lo, m.DegMin)
	}
	if math.Abs(hi-1-m.DegMax) > 1e-12 {
		t.Errorf("SP=0 factor = %v, want 1+%v", hi, m.DegMax)
	}
}

func TestDelayFactorMonotonic(t *testing.T) {
	m := Default()
	f := func(sp1, sp2, yr1, yr2 float64) bool {
		sp1 = math.Abs(math.Mod(sp1, 1))
		sp2 = math.Abs(math.Mod(sp2, 1))
		yr1 = math.Abs(math.Mod(yr1, 10))
		yr2 = math.Abs(math.Mod(yr2, 10))
		// Lower SP (more stress) ages at least as much, at equal time.
		loSP, hiSP := math.Min(sp1, sp2), math.Max(sp1, sp2)
		if m.DelayFactor(cell.XOR2, loSP, 5) < m.DelayFactor(cell.XOR2, hiSP, 5) {
			return false
		}
		// More time ages at least as much, at equal SP.
		loY, hiY := math.Min(yr1, yr2), math.Max(yr1, yr2)
		return m.DelayFactor(cell.XOR2, 0.3, hiY) >= m.DelayFactor(cell.XOR2, 0.3, loY)
	}
	// The same cases every run.
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func TestFrontLoadedDegradation(t *testing.T) {
	// §2.3.3: ~70% of the 10-year Vth degradation occurs in year one.
	m := Default()
	y1 := m.DeltaVthNorm(0, 1)
	y10 := m.DeltaVthNorm(0, 10)
	ratio := y1 / y10
	if ratio < 0.6 || ratio > 0.75 {
		t.Errorf("year-1/year-10 degradation ratio = %v, want ~0.68 (10^(-1/6))", ratio)
	}
}

func TestFreshCircuitUnaged(t *testing.T) {
	m := Default()
	if f := m.DelayFactor(cell.XOR2, 0.5, 0); f != 1 {
		t.Errorf("factor at t=0 = %v, want 1", f)
	}
}

func TestClockCellsMoreSensitive(t *testing.T) {
	m := Default()
	if m.DelayFactor(cell.CLKBUF, 0, 10) <= m.DelayFactor(cell.INV, 0, 10) {
		t.Error("clock buffers should age faster than plain inverters")
	}
}

func TestTemperatureAcceleration(t *testing.T) {
	hot := Default()
	hot.TempK = 398
	cold := Default()
	cold.TempK = 328
	if hot.DeltaVthNorm(0, 10) <= cold.DeltaVthNorm(0, 10) {
		t.Error("higher temperature should accelerate aging")
	}
}

func TestRecovery(t *testing.T) {
	m := Default()
	if r := m.Recovery(5, 0); r != 1 {
		t.Error("no recovery time means full degradation")
	}
	r1 := m.Recovery(5, 1)
	r2 := m.Recovery(5, 5)
	if !(r2 < r1 && r1 < 1) {
		t.Errorf("recovery should increase with time: %v, %v", r1, r2)
	}
	if r2 < 0.5 {
		t.Errorf("at most half the shift recovers, got remaining %v", r2)
	}
}

func TestLibraryInterpolation(t *testing.T) {
	m := Default()
	lib := NewLibrary(cell.Lib28(), m, 10)
	f := func(spRaw float64) bool {
		sp := math.Abs(math.Mod(spRaw, 1))
		want := m.DelayFactor(cell.NAND2, sp, 10)
		got := lib.Factor(cell.NAND2, sp)
		return math.Abs(got-want) < 1e-4 // linear interpolation error
	}
	// The same cases every run.
	if err := quick.Check(f, &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
	// Out-of-range SPs clamp.
	if lib.Factor(cell.NAND2, -0.5) != lib.Factor(cell.NAND2, 0) {
		t.Error("negative SP should clamp")
	}
	if lib.Factor(cell.NAND2, 1.5) != lib.Factor(cell.NAND2, 1) {
		t.Error("SP > 1 should clamp")
	}
}

func TestAgedTiming(t *testing.T) {
	lib := NewLibrary(cell.Lib28(), Default(), 10)
	fresh := cell.Lib28().Timing[cell.XOR2]
	aged := lib.AgedTiming(cell.XOR2, 0.1)
	if aged.DelayMax <= fresh.DelayMax || aged.DelayMin <= fresh.DelayMin {
		t.Error("aged delays should exceed fresh delays")
	}
	if aged.Setup != fresh.Setup || aged.Hold != fresh.Hold {
		t.Error("constraint windows should stay nominal")
	}
	ratio := aged.DelayMax / fresh.DelayMax
	if ratio > 1.08 {
		t.Errorf("degradation %v out of the modeled band", ratio)
	}
}

// TestDegradationCurveShape samples Figure 4's curves, XOR2 delay
// factor over 0..10 years at SP 0.1 and 0.9, from Model.DelayFactor.
func TestDegradationCurveShape(t *testing.T) {
	m := Default()
	curve := func(sp float64) []float64 {
		out := make([]float64, 21)
		for i := range out {
			out[i] = m.DelayFactor(cell.XOR2, sp, 10*float64(i)/20)
		}
		return out
	}
	lo, hi := curve(0.1), curve(0.9)
	if lo[0] != 1 {
		t.Fatalf("curve anchors wrong: factor %v at year 0", lo[0])
	}
	for i := 1; i < len(lo); i++ {
		if lo[i] < lo[i-1] {
			t.Fatal("degradation curve must be nondecreasing")
		}
	}
	// Lower SP curve dominates higher SP curve pointwise.
	for i := range lo {
		if lo[i] < hi[i] {
			t.Fatal("SP=0.1 curve should dominate SP=0.9 curve")
		}
	}
}
