package aging

import (
	"reflect"
	"testing"

	"repro/internal/cell"
)

// TestCornerGridMatchesNewLibrary pins the separability the grid relies
// on: every library of a multi-corner characterization must be
// bit-identical (reflect.DeepEqual on raw float64 tables) to an
// independent NewLibrary run at that corner, including fresh corners
// (nil).
func TestCornerGridMatchesNewLibrary(t *testing.T) {
	base := cell.Lib28()
	m := Default()
	corners := []float64{10, 0, 2.5, 7, 0.25, -1} // 0 and -1: fresh, no library
	libs := NewCornerGrid(base, m, corners)
	for i, c := range corners {
		got := libs[i]
		if c <= 0 {
			if got != nil {
				t.Errorf("corner %d (%+v): fresh corner produced a library", i, c)
			}
			continue
		}
		want := NewLibrary(base, m, c)
		if got == nil {
			t.Fatalf("corner %d (%+v): no library", i, c)
		}
		if !reflect.DeepEqual(got.factors, want.factors) {
			t.Errorf("corner %d (%+v): factor tables differ from NewLibrary", i, c)
		}
		if !reflect.DeepEqual(got.spGrid, want.spGrid) {
			t.Errorf("corner %d (%+v): SP grids differ", i, c)
		}
		if got.Years != want.Years || !reflect.DeepEqual(got.Model, want.Model) || got.Base != want.Base {
			t.Errorf("corner %d (%+v): library metadata differs", i, c)
		}
	}
}

// TestDelayFactorArrheniusHoist pins that supplying the Arrhenius factor
// externally (the bulk-characterization path) is bit-identical to the
// public DelayFactor, at the default and at a shifted temperature.
func TestDelayFactorArrheniusHoist(t *testing.T) {
	for _, m := range []*Model{Default(), func() *Model { m := Default(); m.TempK = 348.5; return m }()} {
		arr := m.arrhenius()
		for _, k := range []cell.Kind{cell.BUF, cell.XOR2, cell.CLKBUF, cell.DFF} {
			for _, sp := range []float64{0, 0.13, 0.5, 0.997, 1} {
				for _, yr := range []float64{0, 0.5, 3, 10, 25} {
					if got, want := m.delayFactorArr(k, sp, yr, arr), m.DelayFactor(k, sp, yr); got != want {
						t.Fatalf("delayFactorArr(%v, %v, %v) = %v, DelayFactor = %v", k, sp, yr, got, want)
					}
				}
			}
		}
	}
}

// BenchmarkNewLibrary guards the Arrhenius hoist: one characterization
// is 41 grid points × every cell kind, and the temperature exponential
// must be computed once per corner, not once per point.
func BenchmarkNewLibrary(b *testing.B) {
	base := cell.Lib28()
	m := Default()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		NewLibrary(base, m, 10)
	}
}

// BenchmarkCornerGrid measures the amortized per-corner characterization
// cost of the batched path (16 corners per grid).
func BenchmarkCornerGrid(b *testing.B) {
	base := cell.Lib28()
	m := Default()
	corners := make([]float64, 16)
	for i := range corners {
		corners[i] = 10 * float64(i+1) / 16
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		NewCornerGrid(base, m, corners)
	}
}
