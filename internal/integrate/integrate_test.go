package integrate

import (
	"strings"
	"testing"

	"repro/internal/alu"
	"repro/internal/cpu"
	"repro/internal/embench"
	"repro/internal/fpu"
	"repro/internal/isa"
	"repro/internal/lift"
	"repro/internal/profile"
)

const memSize = 1 << 20

func mustBuild(t testing.TB, b embench.Benchmark) *isa.Image {
	t.Helper()
	img, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return img
}

func mustInsts(t testing.TB, s *lift.Suite) int {
	t.Helper()
	n, err := s.InstCount()
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// smallSuite builds a deterministic random suite (behavioural-golden,
// so it passes on a healthy CPU) for integration tests.
func smallSuite(n int) *lift.Suite {
	return lift.RandomSuite(alu.Build(), n, 7)
}

func fpuSuite(n int) *lift.Suite {
	return lift.RandomSuite(fpu.Build(), n, 8)
}

func TestProfileCollect(t *testing.T) {
	b, _ := embench.ByName("crc32")
	img := mustBuild(t, b)
	p := profile.Collect(img, memSize, 100_000_000)
	if p == nil {
		t.Fatal("profiling run failed")
	}
	if p.TotalInsts == 0 || len(p.Blocks) < 4 {
		t.Fatalf("profile too small: %d insts, %d blocks", p.TotalInsts, len(p.Blocks))
	}
	// Counts must sum plausibly: dynamic insts >= sum over blocks of
	// count (each block has >= 1 instruction).
	var sum uint64
	hot := uint64(0)
	for _, blk := range p.Blocks {
		sum += blk.Count * uint64(blk.Insts)
		if blk.Count > hot {
			hot = blk.Count
		}
	}
	if sum != p.TotalInsts {
		t.Errorf("block-weighted count %d != dynamic insts %d", sum, p.TotalInsts)
	}
	if hot < 100 {
		t.Errorf("no hot block found (max count %d)", hot)
	}
}

func TestChooseSiteWithinBudget(t *testing.T) {
	b, _ := embench.ByName("crc32")
	img := mustBuild(t, b)
	p := profile.Collect(img, memSize, 100_000_000)
	suite := smallSuite(4)
	site, err := chooseSite(p, mustInsts(t, suite), 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if site.EffOverhead > 0.011 {
		t.Errorf("effective overhead %v exceeds budget", site.EffOverhead)
	}
	if site.Block.Count < minRoutineCount {
		t.Errorf("chosen block not routine: count %d", site.Block.Count)
	}
}

func TestChooseSiteThrottles(t *testing.T) {
	b, _ := embench.ByName("fir")
	img := mustBuild(t, b)
	p := profile.Collect(img, memSize, 100_000_000)
	// A huge suite forces throttling everywhere.
	suite := smallSuite(60)
	site, err := chooseSite(p, mustInsts(t, suite), 0.001)
	if err != nil {
		t.Fatal(err)
	}
	if site.EffOverhead > 0.0012 {
		t.Errorf("throttled overhead %v exceeds budget", site.EffOverhead)
	}
	if site.EstOverhead > 0.001 && site.Period == 1 {
		t.Error("budget-exceeding site must be throttled")
	}
}

func TestEmbedPreservesBehaviour(t *testing.T) {
	suite := smallSuite(4)
	for _, b := range embench.All {
		emb, err := ProfileGuided(mustBuild(t, b), suite, 0.01, memSize, 200_000_000)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		c := cpu.New(memSize)
		c.Load(emb.Image)
		if halt := c.Run(400_000_000); halt != cpu.HaltExit {
			t.Fatalf("%s instrumented: halt=%v (%s) pc=%#x", b.Name, halt, c.FaultMsg, c.PC)
		}
		if c.ExitCode != 0 {
			t.Fatalf("%s instrumented self-check failed (exit=%d)", b.Name, c.ExitCode)
		}
	}
}

func TestEmbedFPUSuitePreservesFPState(t *testing.T) {
	suite := fpuSuite(4)
	for _, name := range []string{"minver", "st", "nbody"} {
		b, _ := embench.ByName(name)
		emb, err := ProfileGuided(mustBuild(t, b), suite, 0.05, memSize, 200_000_000)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		c := cpu.New(memSize)
		c.Load(emb.Image)
		if halt := c.Run(400_000_000); halt != cpu.HaltExit || c.ExitCode != 0 {
			t.Fatalf("%s with FPU tests: halt=%v exit=%d (FP state not preserved?)",
				name, halt, c.ExitCode)
		}
	}
}

// TestMeasureOverheadWithinBudget also holds each application's
// baseline, the profiling run's cycle count, to a run of the plain
// application with no block counters attached.
func TestMeasureOverheadWithinBudget(t *testing.T) {
	suite := smallSuite(4)
	for _, name := range []string{"crc32", "primecount", "statemate"} {
		b, _ := embench.ByName(name)
		app := mustBuild(t, b)
		o, err := MeasureOverhead(name, app, suite, 0.01, memSize, 400_000_000)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		t.Logf("%s: est %.4f (period %d), measured %.4f",
			name, o.Site.EstOverhead, o.Site.Period, o.Fraction)
		if o.Fraction > 0.05 {
			t.Errorf("%s: measured overhead %.4f way above budget", name, o.Fraction)
		}
		if o.TestedCycles <= o.BaselineCycles {
			t.Errorf("%s: instrumented run not slower at all?", name)
		}
		plain := cpu.New(memSize)
		plain.Load(app)
		if halt := plain.Run(400_000_000); halt != cpu.HaltExit || plain.ExitCode != 0 {
			t.Fatalf("%s: plain run halt=%v exit=%d", name, halt, plain.ExitCode)
		}
		if o.BaselineCycles != plain.Cycles {
			t.Errorf("%s: baseline %d cycles, a plain run takes %d", name, o.BaselineCycles, plain.Cycles)
		}
	}
}

func TestEmbeddedSuiteActuallyRuns(t *testing.T) {
	// Replace the suite's expectation with a deliberately wrong value:
	// the instrumented app must trap (proving the tests execute).
	suite := smallSuite(2)
	suite.Cases[0].Expected[0].Result ^= 1
	b, _ := embench.ByName("crc32")
	emb, err := ProfileGuided(mustBuild(t, b), suite, 0.01, memSize, 100_000_000)
	if err != nil {
		t.Fatal(err)
	}
	c := cpu.New(memSize)
	c.Load(emb.Image)
	if halt := c.Run(400_000_000); halt != cpu.HaltBreak {
		t.Fatalf("corrupted expectation not detected: halt=%v", halt)
	}
}

func TestGenerateC(t *testing.T) {
	src, err := GenerateC([]*lift.Suite{smallSuite(3), fpuSuite(2)})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"vega_run_all", "vega_run_random", "vega_set_handler",
		"__asm__ volatile", "vega_test_000", "vega_num_tests",
	} {
		if !strings.Contains(src, want) {
			t.Errorf("generated C missing %q", want)
		}
	}
	if strings.Count(src, "int vega_test_") != 5 {
		t.Errorf("want 5 test functions, got %d", strings.Count(src, "int vega_test_"))
	}
}

// TestAsmInstsFailsClosed: a test body that does not assemble is an
// error, never an empty body — which the C template would report as a
// pass for every input.
func TestAsmInstsFailsClosed(t *testing.T) {
	a := isa.NewAsm()
	a.Addi(isa.T0, isa.T0, 1)
	a.J("nowhere")
	if insts, err := asmInsts(a); err == nil {
		t.Fatalf("a body with an undefined label rendered as %d instructions and no error", len(insts))
	}
}

func TestGenerateGoWrapper(t *testing.T) {
	src := GenerateGoWrapper()
	for _, want := range []string{"package vegaaging", "ErrSDC", "RunAll", "RunRandom"} {
		if !strings.Contains(src, want) {
			t.Errorf("wrapper missing %q", want)
		}
	}
}
