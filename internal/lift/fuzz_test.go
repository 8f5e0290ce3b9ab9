package lift

import (
	"testing"

	"repro/internal/cpu"
	"repro/internal/fault"
	"repro/internal/module"
)

func TestFuzzConstructALU(t *testing.T) {
	m, pairs := agedALUPairs(t)
	results := FuzzConstruct(m, pairs[0].Pair, pairs[0].Type, FuzzConfig{Seed: 1, Guided: true})
	if len(results) != 2 {
		t.Fatalf("got %d variants", len(results))
	}
	success := 0
	for _, r := range results {
		if r.Outcome == Success {
			success++
			tc := r.Case
			if len(tc.Ops) == 0 || !tc.Conditioned {
				t.Errorf("malformed fuzz case: %+v", tc)
			}
		}
	}
	if success == 0 {
		t.Fatal("guided fuzzing found no test case for the worst pair")
	}
}

func TestFuzzSuiteDetects(t *testing.T) {
	// Fuzz-constructed cases must detect their own injected faults, same
	// as formal ones.
	m, pairs := agedALUPairs(t)
	s := &Suite{Unit: m.Name}
	var specs []fault.Spec
	for i, p := range pairs {
		if i >= 2 {
			break
		}
		for _, r := range FuzzConstruct(m, p.Pair, p.Type, FuzzConfig{Seed: 3, Guided: true}) {
			if r.Outcome == Success {
				s.Cases = append(s.Cases, r.Case)
				specs = append(specs, r.Spec)
			}
		}
	}
	if len(s.Cases) == 0 {
		t.Fatal("no fuzz cases")
	}
	img := mustImage(t, s)

	// Clean on healthy hardware.
	c := cpu.New(memSize)
	c.ALU = module.NewDriverOn(m, m.Netlist)
	c.Load(img)
	if halt := c.Run(50_000_000); halt != cpu.HaltExit || c.ExitCode != 0 {
		t.Fatalf("fuzz suite false positive: halt=%v", halt)
	}

	detected := 0
	for _, spec := range specs {
		failing := fault.FailingNetlist(m.Netlist, spec)
		c := cpu.New(memSize)
		c.ALU = module.NewDriverOn(m, failing)
		c.Load(img)
		halt := c.Run(50_000_000)
		if halt == cpu.HaltBreak || halt == cpu.HaltStalled {
			detected++
		}
	}
	if detected == 0 {
		t.Fatalf("fuzz suite detected 0/%d faults", len(specs))
	}
	t.Logf("fuzz suite: %d cases, detected %d/%d injected faults", len(s.Cases), detected, len(specs))
}

func TestGuidedBeatsUnguidedOnBudget(t *testing.T) {
	// With a small attempt budget, the aging-analysis-guided fuzzer
	// should succeed at least as often as coin flips (§6.3's filtering
	// claim).
	m, pairs := agedALUPairs(t)
	budget := FuzzConfig{Attempts: 40, Seed: 5}
	guided, unguided := 0, 0
	for _, p := range pairs {
		g := budget
		g.Guided = true
		for _, r := range FuzzConstruct(m, p.Pair, p.Type, g) {
			if r.Outcome == Success {
				guided++
			}
		}
		for _, r := range FuzzConstruct(m, p.Pair, p.Type, budget) {
			if r.Outcome == Success {
				unguided++
			}
		}
	}
	t.Logf("small-budget fuzz successes: guided %d, unguided %d", guided, unguided)
	if guided < unguided {
		t.Errorf("guidance hurt: %d < %d", guided, unguided)
	}
	if guided == 0 {
		t.Error("guided fuzzing found nothing even on result-register faults")
	}
}

func TestLaunchOperandBit(t *testing.T) {
	m, pairs := agedALUPairs(t)
	// At least one violating pair should launch from an operand register.
	found := false
	for _, p := range pairs {
		if _, _, ok := launchOperandBit(m, p.Pair.Start); ok {
			found = true
		}
	}
	if !found {
		t.Error("no operand-register launch among violating pairs")
	}
}
