package core

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/lift"
	"repro/internal/netlist"
	"repro/internal/sta"
)

func mkResult(start, end netlist.CellID, c fault.CValue, o lift.Outcome) lift.Result {
	return lift.Result{
		Spec:    fault.Spec{Start: start, End: end, C: c},
		Outcome: o,
	}
}

func TestTable4PairAggregation(t *testing.T) {
	results := []lift.Result{
		// Pair (1,2): one success, one UR -> S.
		mkResult(1, 2, fault.C0, lift.Success),
		mkResult(1, 2, fault.C1, lift.Unreachable),
		// Pair (3,4): both UR -> UR.
		mkResult(3, 4, fault.C0, lift.Unreachable),
		mkResult(3, 4, fault.C1, lift.Unreachable),
		// Pair (5,6): FC beats UR in the ranking.
		mkResult(5, 6, fault.C0, lift.ConvFail),
		mkResult(5, 6, fault.C1, lift.Unreachable),
		// Pair (7,8): FF.
		mkResult(7, 8, fault.C0, lift.FormalTimeout),
		mkResult(7, 8, fault.C1, lift.Unreachable),
	}
	row := Table4("ALU", false, results)
	if row.Total != 4 || row.S != 1 || row.UR != 1 || row.FC != 1 || row.FF != 1 {
		t.Errorf("tally = %+v", row)
	}
	if row.Pct(row.S) != 25 {
		t.Errorf("Pct = %v", row.Pct(row.S))
	}
	empty := Table4("ALU", false, nil)
	if empty.Pct(1) != 0 {
		t.Error("empty tally Pct must be 0")
	}
}

func TestQualityRowPct(t *testing.T) {
	r := QualityRow{Total: 8, Detected: 6}
	if r.Pct(r.Detected) != 75 {
		t.Errorf("Pct = %v", r.Pct(r.Detected))
	}
	var zero QualityRow
	if zero.Pct(3) != 0 {
		t.Error("zero-total Pct must be 0")
	}
}

func TestShuffledSuiteDeterministic(t *testing.T) {
	s := &lift.Suite{Unit: "ALU"}
	for i := 0; i < 10; i++ {
		s.Cases = append(s.Cases, &lift.TestCase{Name: string(rune('a' + i))})
	}
	a := ShuffledSuite(s, 1)
	b := ShuffledSuite(s, 1)
	c := ShuffledSuite(s, 2)
	if len(a.Cases) != 10 {
		t.Fatal("shuffle lost cases")
	}
	sameAsA, sameAsOrig := true, true
	for i := range a.Cases {
		if a.Cases[i].Name != b.Cases[i].Name {
			sameAsA = false
		}
		if a.Cases[i].Name != s.Cases[i].Name {
			// expected to differ somewhere
		} else {
			continue
		}
		sameAsOrig = false
	}
	if !sameAsA {
		t.Error("same seed must give same order")
	}
	_ = sameAsOrig
	diff := false
	for i := range a.Cases {
		if a.Cases[i].Name != c.Cases[i].Name {
			diff = true
		}
	}
	if !diff {
		t.Error("different seeds should differ")
	}
}

func TestMergeSuites(t *testing.T) {
	s1 := &lift.Suite{Unit: "ALU", Cases: []*lift.TestCase{{Name: "a"}, {Name: "b"}}}
	s2 := &lift.Suite{Unit: "FPU", Cases: []*lift.TestCase{{Name: "c"}}}
	m := MergeSuites(s1, s2)
	if m.Unit != "ALL" || len(m.Cases) != 3 {
		t.Errorf("merge = %+v", m)
	}
}

func TestWorkloadSelection(t *testing.T) {
	w := NewALU(Config{Workloads: []string{"crc32"}})
	if err := w.ProfileWorkloads(); err != nil {
		t.Fatal(err)
	}
	if w.OpDensity <= 0 || w.SPProfile == nil {
		t.Error("profiling produced no data")
	}
	bad := NewALU(Config{Workloads: []string{"nope"}})
	if err := bad.ProfileWorkloads(); err == nil {
		t.Error("unknown workload must fail")
	}
}

func TestFigure8Bins(t *testing.T) {
	w := NewALU(Config{Workloads: []string{"crc32"}})
	if _, err := w.AgingAnalysis(); err != nil {
		t.Fatal(err)
	}
	bins := w.Figure8(10)
	if len(bins) != 10 {
		t.Fatalf("got %d bins", len(bins))
	}
	total := 0.0
	for _, b := range bins {
		total += b.Frac
		if b.HiPct <= b.LoPct {
			t.Error("bin bounds inverted")
		}
	}
	if total < 0.999 || total > 1.001 {
		t.Errorf("fractions sum to %v", total)
	}
}

func TestSuitePairsFirstIndex(t *testing.T) {
	s := &lift.Suite{Unit: "ALU", Cases: []*lift.TestCase{
		{Spec: fault.Spec{Type: sta.Setup, Start: 1, End: 2, C: fault.C0}},
		{Spec: fault.Spec{Type: sta.Setup, Start: 1, End: 2, C: fault.C1}},
		{Spec: fault.Spec{Type: sta.Setup, Start: 3, End: 4, C: fault.C0}},
	}}
	pairs := suitePairs(s)
	if len(pairs) != 2 {
		t.Fatalf("got %d pairs", len(pairs))
	}
	if pairs[0].OwnIdx != 0 || pairs[1].OwnIdx != 2 {
		t.Errorf("own indices wrong: %+v", pairs)
	}
}

func TestLifetimeSweepMonotonic(t *testing.T) {
	w := NewALU(Config{Workloads: []string{"crc32", "minver"}})
	years := []float64{0, 2, 4, 6, 8, 10}
	pts, err := w.LifetimeSweep(years)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != len(years) {
		t.Fatalf("got %d points", len(pts))
	}
	// Fresh design meets timing.
	if pts[0].SetupViolations != 0 || pts[0].WNSSetup <= 0 {
		t.Errorf("fresh design violates: %+v", pts[0])
	}
	// WNS is nonincreasing with age.
	for i := 1; i < len(pts); i++ {
		if pts[i].WNSSetup > pts[i-1].WNSSetup+1e-9 {
			t.Errorf("WNS improved with age: %v -> %v", pts[i-1], pts[i])
		}
	}
	// Violations appear before the 10-year horizon and onset is after 0.
	onset := FailureOnsetYears(pts)
	if onset <= 0 || onset > 10 {
		t.Errorf("onset = %v, want within (0, 10]", onset)
	}
	t.Logf("ALU failure onset: %.0f years (WNS@10y %.1fps)", onset, pts[len(pts)-1].WNSSetup)
}
