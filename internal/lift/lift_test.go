package lift

import (
	"math/rand"
	"testing"

	"repro/internal/aging"
	"repro/internal/alu"
	"repro/internal/cell"
	"repro/internal/cpu"
	"repro/internal/fault"
	"repro/internal/fpu"
	"repro/internal/isa"
	"repro/internal/module"
	"repro/internal/sta"
)

const memSize = 1 << 20

func mustImage(t testing.TB, s *Suite) *isa.Image {
	t.Helper()
	img, err := s.Image()
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// agedALUPairs runs the aging analysis once and returns the violating
// pairs of the ALU.
func agedALUPairs(t *testing.T) (*module.Module, []sta.PairSummary) {
	t.Helper()
	m := alu.Build()
	scale := sta.Calibrate(m.Netlist, cell.Lib28(), m.PeriodPs, m.SynthMargin)
	d := module.NewDriver(m)
	d.Eng.EnableSP()
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		d.Exec(uint32(rng.Intn(alu.NumOps)), rng.Uint32(), rng.Uint32())
		d.Eng.SetInput(module.PortInValid, 0)
		d.Eng.Step()
		d.Eng.Step()
	}
	res := sta.AnalyzeCorners(m.Netlist, sta.BatchConfig{
		PeriodPs: m.PeriodPs, Scale: scale, Base: cell.Lib28(),
		Model: aging.Default(), Profile: d.Eng.Profile(),
	}, []sta.Corner{{Years: 10}})[0]
	if len(res.Pairs) == 0 {
		t.Fatal("no aging-prone pairs found in the ALU")
	}
	return m, res.Pairs
}

func TestConstructALUWorstPair(t *testing.T) {
	m, pairs := agedALUPairs(t)
	results := Construct(m, pairs[0].Pair, pairs[0].Type, Config{})
	if len(results) != 2 {
		t.Fatalf("got %d variants, want 2 (C=0, C=1)", len(results))
	}
	successes := 0
	for _, r := range results {
		t.Logf("%s -> %v (depth %d) %s", r.Spec.Name(m.Netlist), r.Outcome, r.Depth, r.Reason)
		switch r.Outcome {
		case Success:
			successes++
			tc := r.Case
			if len(tc.Ops) == 0 || len(tc.Expected) != len(tc.Ops) {
				t.Fatalf("malformed test case %+v", tc)
			}
			for _, op := range tc.Ops {
				if !alu.Op(op.Op).Valid() {
					t.Fatalf("test case uses invalid op %d", op.Op)
				}
			}
		case FormalTimeout:
			t.Errorf("unexpected formal timeout on a small module")
		}
	}
	if successes == 0 {
		t.Fatal("no variant produced a test case for the worst pair")
	}
}

func TestMitigationDoublesVariants(t *testing.T) {
	m, pairs := agedALUPairs(t)
	results := Construct(m, pairs[0].Pair, pairs[0].Type, Config{Mitigation: true})
	if len(results) != 4 {
		t.Fatalf("got %d variants with mitigation, want 4", len(results))
	}
	edges := map[fault.EdgeFilter]bool{}
	for _, r := range results {
		edges[r.Spec.Edge] = true
	}
	if !edges[fault.RisingEdge] || !edges[fault.FallingEdge] {
		t.Error("mitigation must produce rising and falling variants")
	}
}

// buildALUSuite constructs a suite over the first few pairs.
func buildALUSuite(t *testing.T, m *module.Module, pairs []sta.PairSummary, mitigation bool) (*Suite, []Result) {
	t.Helper()
	s := &Suite{Unit: m.Name}
	var all []Result
	for i, p := range pairs {
		if i >= 3 {
			break
		}
		for _, r := range Construct(m, p.Pair, p.Type, Config{Mitigation: mitigation}) {
			all = append(all, r)
			if r.Outcome == Success {
				s.Cases = append(s.Cases, r.Case)
			}
		}
	}
	if len(s.Cases) == 0 {
		t.Fatal("no test cases constructed")
	}
	return s, all
}

func TestSuitePassesOnHealthyCPU(t *testing.T) {
	m, pairs := agedALUPairs(t)
	suite, _ := buildALUSuite(t, m, pairs, false)
	img := mustImage(t, suite)

	// Behavioural CPU.
	c := cpu.New(memSize)
	c.Load(img)
	if got := c.Run(10_000_000); got != cpu.HaltExit || c.ExitCode != 0 {
		t.Fatalf("behavioural run: halt=%v exit=%d s1=%d", got, c.ExitCode, c.X[caseReg])
	}

	// Netlist-backed healthy CPU.
	c2 := cpu.New(memSize)
	c2.ALU = module.NewDriverOn(m, m.Netlist)
	c2.Load(img)
	if got := c2.Run(50_000_000); got != cpu.HaltExit || c2.ExitCode != 0 {
		t.Fatalf("netlist run: halt=%v exit=%d case=%d", got, c2.ExitCode, c2.X[caseReg])
	}
	insts, err := suite.InstCount()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("suite: %d cases, %d instructions, %d cycles",
		len(suite.Cases), insts, c.Cycles)
}

func TestSuiteDetectsInjectedFaults(t *testing.T) {
	// The end-to-end Vega loop: for every successful construction,
	// inject the corresponding failing netlist and check that the full
	// suite detects it (by trap or stall).
	m, pairs := agedALUPairs(t)
	suite, results := buildALUSuite(t, m, pairs, false)
	img := mustImage(t, suite)
	detected, total := 0, 0
	for _, r := range results {
		if r.Outcome != Success {
			continue
		}
		total++
		failing := fault.FailingNetlist(m.Netlist, r.Spec)
		c := cpu.New(memSize)
		c.ALU = module.NewDriverOn(m, failing)
		c.Load(img)
		halt := c.Run(50_000_000)
		if halt == cpu.HaltBreak || halt == cpu.HaltStalled {
			detected++
		} else {
			t.Logf("fault %s escaped (halt=%v exit=%d)", r.Spec.Name(m.Netlist), halt, c.ExitCode)
		}
	}
	if total == 0 {
		t.Fatal("no successful constructions")
	}
	if detected == 0 {
		t.Fatalf("suite detected 0/%d injected faults", total)
	}
	t.Logf("suite detected %d/%d injected faults", detected, total)
}

func TestRandomSuiteCleanOnHealthy(t *testing.T) {
	m := alu.Build()
	s := RandomSuite(m, 10, 99)
	img := mustImage(t, s)
	c := cpu.New(memSize)
	c.ALU = module.NewDriverOn(m, m.Netlist)
	c.Load(img)
	if got := c.Run(50_000_000); got != cpu.HaltExit || c.ExitCode != 0 {
		t.Fatalf("random suite false-positive: halt=%v case=%d", got, c.X[caseReg])
	}
}

func TestRandomSuiteFPUCleanOnHealthy(t *testing.T) {
	m := fpu.Build()
	s := RandomSuite(m, 6, 100)
	img := mustImage(t, s)
	c := cpu.New(memSize)
	c.FPU = module.NewDriverOn(m, m.Netlist)
	c.Load(img)
	if got := c.Run(50_000_000); got != cpu.HaltExit || c.ExitCode != 0 {
		t.Fatalf("random FPU suite false-positive: halt=%v case=%d exit=%d", got, c.X[caseReg], c.ExitCode)
	}
}

func TestClassifyCover(t *testing.T) {
	if k, _, _ := classifyCover("result[31]"); k != CoverResult {
		t.Error("result misclassified")
	}
	if k, bit, _ := classifyCover("flags[3]"); k != CoverFlags || bit != 3 {
		t.Error("flags misclassified")
	}
	if k, _, _ := classifyCover("out_valid[0]"); k != CoverHandshake {
		t.Error("out_valid misclassified")
	}
	if k, _, _ := classifyCover("busy[0]"); k != CoverHandshake {
		t.Error("busy misclassified")
	}
}

func TestFPUStickyMaskFC(t *testing.T) {
	m := fpu.Build()
	mk := func(c fault.CValue, coverFlags, otherFlags uint32) *TestCase {
		return &TestCase{
			Unit:      "FPU",
			Spec:      fault.Spec{C: c},
			Ops:       []OpStim{{Op: uint32(fpu.OpFadd)}, {Op: uint32(fpu.OpFmul)}},
			Expected:  []OpExpect{{Flags: otherFlags}, {Flags: coverFlags}},
			CoverOp:   1,
			CoverKind: CoverFlags,
			FlagsBit:  0, // NX
		}
	}
	// C=1 with another op already raising NX: masked -> FC.
	if err := checkFPUConvertible(m, mk(fault.C1, 0, uint32(fpu.FlagNX))); err == nil {
		t.Error("masked C=1 flag corruption must be FC")
	}
	// C=1 with a clean burst: convertible.
	if err := checkFPUConvertible(m, mk(fault.C1, 0, 0)); err != nil {
		t.Errorf("unmasked C=1 flag corruption must convert: %v", err)
	}
	// C=0 clearing a flag only the cover op sets: convertible.
	if err := checkFPUConvertible(m, mk(fault.C0, uint32(fpu.FlagNX), 0)); err != nil {
		t.Errorf("C=0 on a uniquely-set flag must convert: %v", err)
	}
	// C=0 but another op also sets the bit: masked -> FC.
	if err := checkFPUConvertible(m, mk(fault.C0, uint32(fpu.FlagNX), uint32(fpu.FlagNX))); err == nil {
		t.Error("masked C=0 flag corruption must be FC")
	}
}

func TestSuiteEmitIntoSharedAsm(t *testing.T) {
	m, pairs := agedALUPairs(t)
	suite, _ := buildALUSuite(t, m, pairs, false)
	a := isa.NewAsm()
	suite.EmitInto(a, "app_fail")
	a.Label("app_fail")
	a.Ebreak()
	img, err := a.Assemble()
	if err != nil {
		t.Fatalf("embedding assembly failed: %v", err)
	}
	if len(img.Insts) == 0 {
		t.Fatal("nothing emitted")
	}
}
