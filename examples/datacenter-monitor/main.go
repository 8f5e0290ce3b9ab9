// datacenter-monitor shows the deployment scenario from the paper's
// introduction: a long-running service continuously runs the Vega aging
// library between requests, so an aging-related SDC is caught within one
// test period instead of at the next quarterly fleet scan.
//
// The example generates the ALU test suite with the full three-phase
// workflow, embeds it into a toy key-value-checksum service, runs the
// service on healthy silicon (it completes cleanly), then re-runs it on
// emulated 10-year-old silicon (a failing netlist) and reports the test
// case that caught the corruption. It also emits the standalone C aging
// library for integration into non-simulated software.
package main

import (
	"fmt"
	"log"
	"strings"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/fault"
	"repro/internal/integrate"
	"repro/internal/isa"
	"repro/internal/lift"
	"repro/internal/module"
)

// buildService assembles the "service": batches of requests are hashed
// into a digest, with a per-batch maintenance block — the natural
// routinely-but-not-hotly executed integration site — and a final
// self-check of the digest.
func buildService() (*isa.Image, uint32) {
	const batches = 64
	const perBatch = 64
	const rounds = 8
	// Go-side reference of the same loop nest.
	var digest uint32 = 0x9e3779b9
	x := uint32(0x1234)
	for b := 0; b < batches; b++ {
		for i := 0; i < perBatch; i++ {
			x = x*1664525 + 1013904223
			v := x
			for r := 0; r < rounds; r++ {
				v = (v<<5 | v>>27) ^ (v >> 3)
			}
			digest = (digest<<1 | digest>>31) ^ v
		}
		digest += uint32(b) // per-batch maintenance
	}

	a := isa.NewAsm()
	a.Li(isa.S0, 0x9e3779b9) // digest
	a.Li(isa.S2, 0x1234)     // request source
	a.Li(isa.S3, 0)          // batch
	a.Label("batch")
	a.Li(isa.S4, 0) // request within batch
	a.Label("serve")
	a.Li(isa.T0, 1664525)
	a.Mul(isa.S2, isa.S2, isa.T0)
	a.Li(isa.T0, 1013904223)
	a.Add(isa.S2, isa.S2, isa.T0)
	a.Mv(isa.S5, isa.S2) // v
	a.Li(isa.S6, rounds)
	a.Label("round")
	a.Slli(isa.T1, isa.S5, 5)
	a.Srli(isa.T2, isa.S5, 27)
	a.Or(isa.T1, isa.T1, isa.T2)
	a.Srli(isa.T2, isa.S5, 3)
	a.Xor(isa.S5, isa.T1, isa.T2)
	a.Addi(isa.S6, isa.S6, -1)
	a.Bnez(isa.S6, "round")
	a.Slli(isa.T1, isa.S0, 1)
	a.Srli(isa.T2, isa.S0, 31)
	a.Or(isa.S0, isa.T1, isa.T2)
	a.Xor(isa.S0, isa.S0, isa.S5)
	a.Addi(isa.S4, isa.S4, 1)
	a.Li(isa.T3, perBatch)
	a.Bne(isa.S4, isa.T3, "serve")
	// Per-batch maintenance block: the integration site.
	a.Add(isa.S0, isa.S0, isa.S3)
	a.Addi(isa.S3, isa.S3, 1)
	a.Li(isa.T3, batches)
	a.Bne(isa.S3, isa.T3, "batch")
	a.Mv(isa.A0, isa.S0)
	// Self-check.
	a.Li(isa.T0, digest)
	a.Beq(isa.A0, isa.T0, "ok")
	a.Li(isa.A0, 2) // wrong digest: silent corruption slipped through!
	a.Ecall()
	a.Label("ok")
	a.Li(isa.A0, 0)
	a.Ecall()
	img, err := a.Assemble()
	if err != nil {
		log.Fatal(err)
	}
	return img, digest
}

func main() {
	fmt.Println("== generating the ALU aging test suite (three-phase workflow) ==")
	w := core.NewALU(core.Config{Lift: lift.Config{Mitigation: true}})
	if _, err := w.ErrorLifting(); err != nil {
		log.Fatal(err)
	}
	suite := w.Suite()
	cycles, err := core.SuiteCycles(suite)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("suite: %d test cases, %d cycles per pass — cheap enough to run per request batch\n\n",
		len(suite.Cases), cycles)

	service, digest := buildService()
	fmt.Printf("service self-check digest: %#x\n", digest)

	fmt.Println("\n== integrating the suite into the service (budget 1%) ==")
	o, err := integrate.MeasureOverhead("kv-service", service, suite, 0.01, core.MemSize, core.MaxCycles)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("integration site: block @%#x (visited %d times), throttle period %d\n",
		o.Site.Block.Start, o.Site.Block.Count, o.Site.Period)
	fmt.Printf("measured overhead on healthy silicon: %.3f%% (%d -> %d cycles), service exits clean\n",
		o.Fraction*100, o.BaselineCycles, o.TestedCycles)

	fmt.Println("\n== the fleet ages: injecting a 10-year aging failure into the ALU ==")
	// A subtle failure mode: the endpoint driving the highest result bit,
	// stuck at 0 on activation. Small loop counters never notice; wide
	// arithmetic silently loses its top bit.
	pair := suite.Cases[0].Spec
	out, _ := w.Module.Netlist.FindOutput("result")
	for _, tc := range suite.Cases {
		if w.Module.Netlist.Cells[tc.Spec.End].Out == out.Bits[31] {
			pair = tc.Spec
			break
		}
	}
	failing := fault.FailingNetlist(w.Module.Netlist, fault.Spec{
		Type: pair.Type, Start: pair.Start, End: pair.End, C: fault.C0,
	})
	c := cpu.New(core.MemSize)
	c.ALU = module.NewDriverOn(w.Module, failing)
	c.Load(o.Image) // the embedded image MeasureOverhead ran
	// Watchdog budget: a handful of healthy runtimes. Corrupted loop
	// counters can livelock the service, which the budget converts into
	// a watchdog-visible symptom.
	switch c.Run(5 * o.BaselineCycles) {
	case cpu.HaltBreak:
		idx := lift.FailedCase(c.X[isa.S1])
		fmt.Printf("DETECTED at runtime by test case %d (%s) after %d cycles —\n",
			idx, suite.Cases[idx].Name, c.Cycles)
		fmt.Println("the service can now fail over before the corruption reaches user data.")
	case cpu.HaltStalled, cpu.HaltFault:
		fmt.Println("DETECTED: the faulty unit hung the pipeline (watchdog-visible).")
	case cpu.HaltLimit:
		fmt.Println("DETECTED: the service livelocked on the faulty ALU (watchdog-visible).")
	case cpu.HaltExit:
		if c.ExitCode == 2 {
			fmt.Println("MISSED: the digest was silently corrupted — this is what an SDC looks like.")
		} else {
			fmt.Println("fault did not activate during this run.")
		}
	}

	fmt.Println("\n== emitting the standalone aging library (§3.4.1) ==")
	src, err := integrate.GenerateC([]*lift.Suite{suite})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("generated vega_aging.c: %d lines, %d test functions, scheduling helpers:\n",
		strings.Count(src, "\n"), strings.Count(src, "int vega_test_"))
	for _, line := range strings.Split(src, "\n") {
		if strings.Contains(line, "int vega_run") || strings.Contains(line, "void vega_set_handler") {
			fmt.Println("  " + line)
		}
	}
}
