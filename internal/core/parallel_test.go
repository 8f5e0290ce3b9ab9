package core

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"repro/internal/aging"
	"repro/internal/alu"
	"repro/internal/cell"
	"repro/internal/inject"
	"repro/internal/lift"
	"repro/internal/par"
	"repro/internal/sta"
)

// liftedALU runs the full pipeline (profile → aged STA → error lifting)
// at the given parallelism on a fast workload subset.
func liftedALU(t *testing.T, parallelism int) *Workflow {
	t.Helper()
	w := NewALU(Config{Workloads: []string{"crc32", "minver"}, Parallelism: parallelism})
	if _, err := w.ErrorLifting(); err != nil {
		t.Fatal(err)
	}
	return w
}

// TestParallelismDeterminism is the load-bearing test for the parallel
// workflow: every phase run at Parallelism=8 must produce results
// deep-equal to Parallelism=1. This holds because tasks are pure
// functions of their index, results are collected in index order, and
// the SP replay partitions on fixed chunk boundaries.
func TestParallelismDeterminism(t *testing.T) {
	w1 := liftedALU(t, 1)
	w8 := liftedALU(t, 8)

	if !reflect.DeepEqual(w1.SPProfile, w8.SPProfile) {
		t.Error("SP profiles differ between Parallelism=1 and Parallelism=8")
	}
	if w1.OpDensity != w8.OpDensity || w1.TotalInsts != w8.TotalInsts {
		t.Errorf("profiling stats differ: (%v,%v) vs (%v,%v)",
			w1.OpDensity, w1.TotalInsts, w8.OpDensity, w8.TotalInsts)
	}
	if !reflect.DeepEqual(w1.OpTrace, w8.OpTrace) {
		t.Error("sampled op traces differ")
	}
	if !reflect.DeepEqual(w1.STA.Pairs, w8.STA.Pairs) {
		t.Error("aging-prone pair censuses differ")
	}
	if len(w1.Results) == 0 || !reflect.DeepEqual(w1.Results, w8.Results) {
		t.Errorf("lifting results differ (or empty): %d vs %d results",
			len(w1.Results), len(w8.Results))
	}

	s1, s8 := w1.Suite(), w8.Suite()
	if !reflect.DeepEqual(s1, s8) {
		t.Fatal("assembled suites differ")
	}
	q1, err := w1.TestQuality(s1)
	if err != nil {
		t.Fatal(err)
	}
	q8, err := w8.TestQuality(s8)
	if err != nil {
		t.Fatal(err)
	}
	if len(q1) == 0 || !reflect.DeepEqual(q1, q8) {
		t.Errorf("TestQuality rows differ:\n  j=1: %+v\n  j=8: %+v", q1, q8)
	}
	// A shuffled suite moves the own-case indices, which repopulates the
	// Before/Later columns.
	sh1, err := w1.TestQuality(ShuffledSuite(s1, 3))
	if err != nil {
		t.Fatal(err)
	}
	sh8, err := w8.TestQuality(ShuffledSuite(s8, 3))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sh1, sh8) {
		t.Errorf("shuffled-suite rows differ:\n  j=1: %+v\n  j=8: %+v", sh1, sh8)
	}
}

// TestParallelismDeterminismSweeps covers the remaining fan-out sites:
// the lifetime sweep and the Vega-vs-random replay.
func TestParallelismDeterminismSweeps(t *testing.T) {
	w1 := liftedALU(t, 1)
	w8 := liftedALU(t, 8)

	years := []float64{0, 2, 5, 10}
	p1, err := w1.LifetimeSweep(years)
	if err != nil {
		t.Fatal(err)
	}
	p8, err := w8.LifetimeSweep(years)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p1, p8) {
		t.Errorf("lifetime sweeps differ: %+v vs %+v", p1, p8)
	}

	v1, err := w1.VsRandom(w1.Suite(), 2)
	if err != nil {
		t.Fatal(err)
	}
	v8, err := w8.VsRandom(w8.Suite(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(v1, v8) {
		t.Errorf("VsRandom rows differ: %+v vs %+v", v1, v8)
	}
}

// TestRandomSPDeterminism extends the determinism regression to the
// packed evaluator: the 64-lane random-stimulus profile must be
// byte-identical at every Parallelism setting (chunk boundaries and
// per-chunk seeds depend only on cycles and chunk index), and must
// change when the seed does.
func TestRandomSPDeterminism(t *testing.T) {
	nl := alu.Build().Netlist
	p1, err := RandomSP(nl, 200, 7, 1)
	if err != nil {
		t.Fatal(err)
	}
	p8, err := RandomSP(nl, 200, 7, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p1, p8) {
		t.Error("packed random-SP profiles differ between Parallelism=1 and Parallelism=8")
	}
	if p1.Cycles != 200*64 {
		t.Errorf("profile covers %d lane-cycles, want %d", p1.Cycles, 200*64)
	}
	other, err := RandomSP(nl, 200, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(p1, other) {
		t.Error("different seeds produced identical random-SP profiles")
	}
}

// TestConcurrentWorkflowsSharedLibrary hammers the concurrency
// invariants directly: several workflows running whole phases at once
// while sharing one cell.Library and one aging.Model, which must be
// treated as read-only by every phase. Run under -race this flushes out
// any write to shared state; instrumentation works on builder copies
// (and Module.Clone provides hard isolation), so none should exist.
func TestConcurrentWorkflowsSharedLibrary(t *testing.T) {
	sharedLib := cell.Lib28()
	sharedModel := aging.Default()

	err := par.ForEach(context.Background(), 4, 4, func(_ context.Context, i int) error {
		w := NewALU(Config{Workloads: []string{"crc32"}, Parallelism: 2})
		w.Lib = sharedLib
		w.Model = sharedModel
		if _, err := w.AgingAnalysis(); err != nil {
			return err
		}
		// Lift a few pairs on a cloned module while sibling goroutines
		// lift from their own workflows concurrently.
		m := w.Module.Clone()
		for _, p := range w.STA.Pairs[:min(3, len(w.STA.Pairs))] {
			for _, r := range lift.Construct(m, p.Pair, p.Type, w.Config.Lift) {
				_ = r
			}
		}
		// And exercise a sweep, which reads the shared model per task.
		if _, err := w.LifetimeSweep([]float64{5, 10}); err != nil {
			return err
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestInjectionCampaignDeterminism wires the campaign through the full
// workflow (lift -> sample universe excluding the STA census -> inject)
// and pins the j=1 vs j=8 byte-identical-report contract at this level
// too.
func TestInjectionCampaignDeterminism(t *testing.T) {
	w1 := liftedALU(t, 1)
	w8 := liftedALU(t, 8)
	opts := InjectOptions{Seed: 5, PerClass: 2, MaxCycles: 20_000_000}
	r1, err := w1.InjectionCampaign(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	r8, err := w8.InjectionCampaign(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	j1, err1 := r1.JSON()
	j8, err8 := r8.JSON()
	if err1 != nil || err8 != nil {
		t.Fatal(err1, err8)
	}
	if !bytes.Equal(j1, j8) {
		t.Errorf("campaign reports differ between j=1 and j=8:\n%s\n---\n%s", j1, j8)
	}
	if r1.Completed != r1.Total || r1.Total != 8 {
		t.Errorf("campaign completed %d/%d, want 8/8", r1.Completed, r1.Total)
	}
	// The sampled universe must exclude every STA-census pair: the
	// campaign measures robustness beyond the suite's design target.
	excl := make(map[sta.Pair]bool)
	for _, p := range w1.STA.Pairs {
		excl[p.Pair] = true
	}
	for _, s := range inject.SampleUniverse(w1.Module, w1.STA.Pairs, 5, 5) {
		for _, f := range s.Faults {
			if excl[sta.Pair{Start: f.Start, End: f.End}] {
				t.Errorf("sampled spec %s hits an STA-census pair", s.String())
			}
		}
	}
}
