package sta

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/aging"
	"repro/internal/alu"
	"repro/internal/cell"
	"repro/internal/demo"
	"repro/internal/engine"
	"repro/internal/fpu"
	"repro/internal/module"
	"repro/internal/netlist"
)

// table1Profile builds the paper's Table 1 SP profile for the demo adder.
func table1Profile(nl *netlist.Netlist) *engine.Profile {
	p := &engine.Profile{Cycles: 1, SP: make([]float64, nl.NumNets)}
	sp := map[string]float64{
		"DFF$1": 0.85, "DFF$2": 0.54, "DFF$3": 0.38, "DFF$4": 0.27,
		"XOR$5": 0.46, "AND$6": 0.48, "XOR$7": 0.13, "XOR$8": 0.52,
		"DFF$9": 0.44, "DFF$10": 0.54,
	}
	for name, v := range sp {
		cid := demo.CellIDByName(nl, name)
		p.SP[nl.Cells[cid].Out] = v
	}
	return p
}

// analyze runs the production engine at the one corner cfg describes.
func analyze(nl *netlist.Netlist, cfg Config) *Result {
	return AnalyzeCorners(nl, cfg.batch(), []Corner{{}})[0]
}

func TestFreshAdderMeetsTiming(t *testing.T) {
	nl := demo.Adder2()
	res := analyze(nl, Config{PeriodPs: 1000, Base: cell.DemoLibrary()})
	// Longest path: clk-to-q 300 + two XORs 600 = 900; required 940.
	if math.Abs(res.WNSSetup-40) > 1e-9 {
		t.Errorf("fresh WNS setup = %v, want 40", res.WNSSetup)
	}
	// Shortest path: clk-to-q 100 + XOR 100 = 200 vs hold 30.
	if math.Abs(res.WNSHold-170) > 1e-9 {
		t.Errorf("fresh WNS hold = %v, want 170", res.WNSHold)
	}
	if res.NumSetupViolations != 0 || res.NumHoldViolations != 0 {
		t.Errorf("fresh design has violations: %+v", res)
	}
}

func TestAgedAdderReproducesPaperExample(t *testing.T) {
	// §3.2.2: with the Table 1 profile, the path $4 -> $7 -> $8 -> $10
	// accumulates ~0.946ns after 10 years and violates the 0.94ns setup
	// requirement.
	nl := demo.Adder2()
	lib := aging.NewLibrary(cell.DemoLibrary(), aging.Default(), 10)
	res := analyze(nl, Config{PeriodPs: 1000, Aged: lib, Profile: table1Profile(nl)})
	if res.WNSSetup >= 0 {
		t.Fatalf("aged WNS setup = %v, want negative", res.WNSSetup)
	}
	if res.WNSSetup < -12 {
		t.Fatalf("aged WNS setup = %v, out of the expected few-ps band", res.WNSSetup)
	}
	if len(res.Pairs) == 0 {
		t.Fatal("no violating pairs")
	}
	worst := res.Pairs[0]
	start := nl.Cells[worst.Start].Name
	end := nl.Cells[worst.End].Name
	if start != "DFF$4" || end != "DFF$10" {
		t.Errorf("worst pair = %s -> %s, want DFF$4 -> DFF$10", start, end)
	}
	// Aged path delay ~945-946ps.
	delay := 1000.0 - lib.Base.Timing[cell.DFF].Setup - (res.WNSSetup + 0)
	if delay < 942 || delay > 950 {
		t.Errorf("aged critical path = %vps, want ~946ps", delay)
	}
	if res.NumHoldViolations != 0 {
		t.Error("demo adder should have no hold violations (no clock skew)")
	}
}

func TestHoldViolationFromAgedClockSkew(t *testing.T) {
	// Launch FF under a 9-buffer ungated branch; capture FF under a
	// nominally-balanced gated branch (gate + 8 buffers) with a direct
	// Q->D connection. Fresh timing meets hold by a small residual; the
	// gated branch's aged slowdown flips it negative.
	b := netlist.NewBuilder("skew")
	clk := b.Clock("clk")
	en := b.Input("en")
	d := b.Input("d")

	launch := clk
	var launchNets []netlist.NetID
	for i := 0; i < 9; i++ {
		launch = b.Add(cell.CLKBUF, launch)
		launchNets = append(launchNets, launch)
	}
	capture := b.Add(cell.CLKGATE, clk, en)
	captureNets := []netlist.NetID{capture}
	for i := 0; i < 8; i++ {
		capture = b.Add(cell.CLKBUF, capture)
		captureNets = append(captureNets, capture)
	}
	ql := b.AddDFFNamed("launch_ff", d, launch, false)
	qc := b.AddDFFNamed("capture_ff", ql, capture, false)
	b.Output("q", qc)
	nl := b.MustBuild()

	prof := &engine.Profile{Cycles: 1, SP: make([]float64, nl.NumNets)}
	for _, n := range launchNets {
		prof.SP[n] = 0.5 // running clock
	}
	for _, n := range captureNets {
		prof.SP[n] = 0.0 // gated off: idles low
	}
	prof.SP[ql] = 0.5
	prof.SP[qc] = 0.5
	prof.SP[clk] = 0.5

	fresh := analyze(nl, Config{PeriodPs: 4000, Base: cell.Lib28()})
	if fresh.WNSHold < 0 {
		t.Fatalf("fresh WNS hold = %v, must meet timing", fresh.WNSHold)
	}
	lib := aging.NewLibrary(cell.Lib28(), aging.Default(), 10)
	aged := analyze(nl, Config{PeriodPs: 4000, Aged: lib, Profile: prof})
	if aged.WNSHold >= 0 {
		t.Fatalf("aged WNS hold = %v, want negative (skewed capture clock)", aged.WNSHold)
	}
	if aged.NumHoldViolations != 1 || len(aged.Pairs) != 1 || aged.Pairs[0].Type != Hold {
		t.Fatalf("want exactly one hold pair, got %+v", aged.Pairs)
	}
}

func TestCalibrateHitsMargin(t *testing.T) {
	m := alu.Build()
	scale := Calibrate(m.Netlist, cell.Lib28(), m.PeriodPs, 0.04)
	res := analyze(m.Netlist, Config{PeriodPs: m.PeriodPs, Scale: scale, Base: cell.Lib28()})
	wantWNS := 0.04 * m.PeriodPs
	if math.Abs(res.WNSSetup-wantWNS) > 1 {
		t.Errorf("calibrated WNS = %v, want %v", res.WNSSetup, wantWNS)
	}
	if res.NumSetupViolations != 0 || res.NumHoldViolations != 0 {
		t.Error("calibrated fresh design must meet timing")
	}
}

// TestCriticalDelayMatchesOracle: CriticalDelay is bitwise the largest
// launch-to-capture setup requirement of the scalar oracle's fresh,
// unscaled arrivals — on the ALU, the FPU and random netlists whose
// clock trees are gated — so the calibrated scale, and every period
// derived from it, rests on the oracle's numbers and no tolerance.
func TestCriticalDelayMatchesOracle(t *testing.T) {
	lib := cell.Lib28()
	oracle := func(nl *netlist.Netlist) float64 {
		a := newAnalysis(nl, Config{Base: lib})
		a.computeCellTiming()
		a.computeClockArrivals()
		a.propagateArrivals()
		worst := 0.0
		for i, c := range nl.Cells {
			if c.Kind == cell.DFF && a.arrMax[c.In[0]] > -inf {
				worst = max(worst, a.arrMax[c.In[0]]-a.clkEarly[i]+a.setup)
			}
		}
		return worst
	}
	nls := []*netlist.Netlist{alu.Build().Netlist, fpu.Build().Netlist}
	gated := false
	for seed := int64(0); seed < 40; seed++ {
		nl := randomTimedNetlist(seed)
		for _, c := range nl.Cells {
			gated = gated || c.Kind == cell.CLKGATE
		}
		nls = append(nls, nl)
	}
	if !gated {
		t.Fatal("no random netlist has a gated clock tree")
	}
	for _, nl := range nls {
		got, want := CriticalDelay(nl, lib), oracle(nl)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s: CriticalDelay %v, the oracle's fresh arrivals give %v", nl.Name, got, want)
		}
	}
}

// profileModule drives the module with a synthetic workload (ops spaced
// by the given idle gap) and returns the SP profile.
func profileModule(m *module.Module, ops int, gap int, seed int64, opGen func(*rand.Rand) (uint32, uint32, uint32)) *engine.Profile {
	d := module.NewDriver(m)
	d.Eng.EnableSP()
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < ops; i++ {
		op, a, b := opGen(rng)
		d.Exec(op, a, b)
		d.Eng.SetInput(module.PortInValid, 0)
		for range gap {
			d.Eng.Step()
		}
	}
	return d.Eng.Profile()
}

func TestALUAgedViolations(t *testing.T) {
	m := alu.Build()
	scale := Calibrate(m.Netlist, cell.Lib28(), m.PeriodPs, m.SynthMargin)
	prof := profileModule(m, 300, 2, 5, func(r *rand.Rand) (uint32, uint32, uint32) {
		return uint32(r.Intn(alu.NumOps)), r.Uint32(), r.Uint32()
	})
	lib := aging.NewLibrary(cell.Lib28(), aging.Default(), 10)
	res := analyze(m.Netlist, Config{PeriodPs: m.PeriodPs, Scale: scale, Aged: lib, Profile: prof})
	t.Logf("ALU aged: WNS setup %.1fps (%d paths), WNS hold %.1fps (%d paths), %d pairs",
		res.WNSSetup, res.NumSetupViolations, res.WNSHold, res.NumHoldViolations, len(res.Pairs))
	if res.NumSetupViolations == 0 {
		t.Error("expected aged setup violations in the ALU")
	}
	if res.NumHoldViolations != 0 {
		t.Error("ALU should have no hold violations (shallow, active clock tree)")
	}
}

func TestFPUAgedViolations(t *testing.T) {
	m := fpu.Build()
	scale := Calibrate(m.Netlist, cell.Lib28(), m.PeriodPs, m.SynthMargin)
	// FPU is rarely used: long idle gaps, so its gated clock subtrees
	// idle low and age hard.
	prof := profileModule(m, 40, 40, 6, func(r *rand.Rand) (uint32, uint32, uint32) {
		return uint32(r.Intn(fpu.NumOps)), r.Uint32(), r.Uint32()
	})
	lib := aging.NewLibrary(cell.Lib28(), aging.Default(), 10)
	res := analyze(m.Netlist, Config{PeriodPs: m.PeriodPs, Scale: scale, Aged: lib, Profile: prof})
	t.Logf("FPU aged: WNS setup %.1fps (%d paths), WNS hold %.1fps (%d paths), %d pairs",
		res.WNSSetup, res.NumSetupViolations, res.WNSHold, res.NumHoldViolations, len(res.Pairs))
	if res.NumSetupViolations == 0 {
		t.Error("expected aged setup violations in the FPU")
	}
	if res.NumHoldViolations == 0 {
		t.Error("expected aged hold violations in the FPU (skewed gated clock tree)")
	}
	holdPairs := 0
	for _, p := range res.Pairs {
		if p.Type == Hold {
			holdPairs++
		}
	}
	if holdPairs == 0 || holdPairs > 8 {
		t.Errorf("hold pairs = %d, want a small handful", holdPairs)
	}
}

func TestFactorHistogramBand(t *testing.T) {
	// Figure 8's premise: per-cell degradation spans ~1.9%..6.8%.
	m := alu.Build()
	prof := profileModule(m, 100, 2, 7, func(r *rand.Rand) (uint32, uint32, uint32) {
		return uint32(r.Intn(alu.NumOps)), r.Uint32(), r.Uint32()
	})
	lib := aging.NewLibrary(cell.Lib28(), aging.Default(), 10)
	res := analyze(m.Netlist, Config{PeriodPs: m.PeriodPs, Aged: lib, Profile: prof})
	lo, hi := math.Inf(1), math.Inf(-1)
	for i, f := range res.Factor {
		k := m.Netlist.Cells[i].Kind
		if k == cell.TIE0 || k == cell.TIE1 || k.IsClock() {
			continue
		}
		lo = math.Min(lo, f)
		hi = math.Max(hi, f)
	}
	if lo < 1.015 || hi > 1.08 || hi <= lo {
		t.Errorf("degradation band [%v, %v] outside the expected range", lo, hi)
	}
}

func TestTruncationCap(t *testing.T) {
	m := alu.Build()
	scale := Calibrate(m.Netlist, cell.Lib28(), m.PeriodPs, m.SynthMargin)
	prof := profileModule(m, 50, 2, 8, func(r *rand.Rand) (uint32, uint32, uint32) {
		return uint32(r.Intn(alu.NumOps)), r.Uint32(), r.Uint32()
	})
	lib := aging.NewLibrary(cell.Lib28(), aging.Default(), 10)
	res := analyze(m.Netlist, Config{PeriodPs: m.PeriodPs, Scale: scale, Aged: lib, Profile: prof, MaxPaths: 3})
	if res.NumSetupViolations > 3 && !res.Truncated {
		t.Error("exceeding MaxPaths must set Truncated")
	}
	if res.NumSetupViolations > 0 && res.NumSetupViolations <= 4 && res.Truncated {
		// Budget respected (allow one pair of off-by-one at the boundary).
		_ = res
	}
}

func TestWorstPathReport(t *testing.T) {
	nl := demo.Adder2()
	lib := aging.NewLibrary(cell.DemoLibrary(), aging.Default(), 10)
	cfg := Config{PeriodPs: 1000, Aged: lib, Profile: table1Profile(nl)}
	res := analyze(nl, cfg)
	if len(res.Pairs) == 0 {
		t.Fatal("no violating pairs")
	}
	rep, err := WorstPath(nl, cfg, res.Pairs[0].End)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's worst path: DFF$4 -> XOR$7 -> XOR$8 -> (capture DFF$10).
	if rep.StartName != "DFF$4" || rep.EndName != "DFF$10" {
		t.Errorf("path %s -> %s, want DFF$4 -> DFF$10", rep.StartName, rep.EndName)
	}
	var names []string
	for _, s := range rep.Stages {
		names = append(names, s.Name)
	}
	want := []string{"DFF$4", "XOR$7", "XOR$8"}
	if len(names) != len(want) {
		t.Fatalf("stages = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("stages = %v, want %v", names, want)
		}
	}
	// Slack in the report matches the pair summary.
	if diff := rep.SlackPs - res.Pairs[0].WorstSlack; diff > 0.01 || diff < -0.01 {
		t.Errorf("report slack %.2f vs pair slack %.2f", rep.SlackPs, res.Pairs[0].WorstSlack)
	}
	// Arrival is the accumulation of stage delays plus launch clock.
	sum := rep.LaunchPs
	for _, s := range rep.Stages {
		sum += s.DelayPs
	}
	if diff := sum - rep.ArrivalPs; diff > 0.01 || diff < -0.01 {
		t.Errorf("stage delays sum to %.2f, arrival %.2f", sum, rep.ArrivalPs)
	}
	out := rep.String()
	for _, wantS := range []string{"DFF$4", "XOR$8", "slack"} {
		if !strings.Contains(out, wantS) {
			t.Errorf("report missing %q:\n%s", wantS, out)
		}
	}
}

// TestWorstPathMatchesOracle: the graph-based WorstPath reports what
// the backtrack over the scalar arrival arrays reported, field for field
// and stage for stage, for every violating endpoint of the aged units.
func TestWorstPathMatchesOracle(t *testing.T) {
	for _, u := range []struct {
		m        *module.Module
		ops, gap int
		numOps   int
	}{
		{alu.Build(), 300, 2, alu.NumOps},
		{fpu.Build(), 40, 40, fpu.NumOps},
	} {
		nl := u.m.Netlist
		prof := profileModule(u.m, u.ops, u.gap, 5, func(r *rand.Rand) (uint32, uint32, uint32) {
			return uint32(r.Intn(u.numOps)), r.Uint32(), r.Uint32()
		})
		cfg := Config{
			PeriodPs: u.m.PeriodPs,
			Scale:    Calibrate(nl, cell.Lib28(), u.m.PeriodPs, u.m.SynthMargin),
			Aged:     aging.NewLibrary(cell.Lib28(), aging.Default(), 10),
			Profile:  prof,
		}
		ends := map[netlist.CellID]bool{}
		for _, p := range analyze(nl, cfg).Pairs {
			ends[p.End] = true
		}
		if len(ends) == 0 {
			t.Fatalf("%s: no violating endpoint to report on", u.m.Name)
		}
		for end := range ends {
			got, err := WorstPath(nl, cfg, end)
			want, werr := worstPathOracle(nl, cfg, end)
			if err != nil || werr != nil {
				t.Fatalf("%s endpoint %d: err %v, oracle err %v", u.m.Name, end, err, werr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s endpoint %s:\n graph:  %+v\n oracle: %+v", u.m.Name, want.EndName, got, want)
			}
		}
	}
}

func TestWorstPathErrors(t *testing.T) {
	nl := demo.Adder2()
	cfg := Config{PeriodPs: 1000, Base: cell.DemoLibrary()}
	// Non-DFF endpoint.
	if _, err := WorstPath(nl, cfg, demo.CellIDByName(nl, "XOR$7")); err == nil {
		t.Error("non-FF endpoint accepted")
	}
	// Input-register endpoint (D fed by a primary input): no timed path.
	if _, err := WorstPath(nl, cfg, demo.CellIDByName(nl, "DFF$1")); err == nil {
		t.Error("untimed endpoint accepted")
	}
}
