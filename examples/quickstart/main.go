// The quickstart walks the paper's Section 3 running example end to end
// on the 2-bit pipelined adder of Listing 1 / Figure 3:
//
//  1. simulate a workload and collect the signal-probability profile
//     (the shape of the paper's Table 1),
//  2. run aging-aware STA and find the setup-violating path
//     $4 -> $7 -> $8 -> $10 (§3.2.2's 0.946ns example),
//  3. instrument the failure model with a shadow replica (Figure 7) and
//     let the bounded model checker produce the activating trace (the
//     paper's Table 2),
//  4. replay the trace to watch o[1] and o_s[1] diverge.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"repro/internal/aging"
	"repro/internal/bmc"
	"repro/internal/cell"
	"repro/internal/demo"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/sta"
)

func main() {
	nl := demo.Adder2()
	fmt.Printf("netlist %q: %d cells (%d DFFs)\n\n", nl.Name, len(nl.Cells), nl.CountKind(cell.DFF))

	// --- Phase 1a: signal-probability simulation (§3.2.1) ---
	// Every input reaches all 64 lanes; the profile counts lane 0.
	s := engine.NewPacked(engine.Cached(nl))
	s.EnableSP()
	s.ObserveLanes(1)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 100000; i++ {
		// A biased workload: a leans high, b leans low, so some cells
		// idle and age asymmetrically.
		a := uint64(rng.Intn(4) | rng.Intn(4))
		b := uint64(rng.Intn(4) & rng.Intn(4))
		s.SetInput("a", a)
		s.SetInput("b", b)
		s.Step()
	}
	prof := s.Profile()
	fmt.Println("SP profile (cf. the paper's Table 1):")
	for i, c := range nl.Cells {
		fmt.Printf("  %-8s SP=%.2f", c.Name, prof.SP[c.Out])
		if i%3 == 2 {
			fmt.Println()
		}
	}
	fmt.Println()

	// --- Phase 1b: aging-aware STA (§3.2.2) ---
	corners := sta.AnalyzeCorners(nl, sta.BatchConfig{
		PeriodPs: 1000, Base: cell.DemoLibrary(), Model: aging.Default(), Profile: prof,
	}, []sta.Corner{{}, {Years: 10}})
	fresh, aged := corners[0], corners[1]
	fmt.Printf("\nfresh WNS: setup %+.0fps hold %+.0fps (design meets timing at 1 GHz)\n",
		fresh.WNSSetup, fresh.WNSHold)
	fmt.Printf("after 10 years: setup WNS %+.1fps, %d violating path(s)\n",
		aged.WNSSetup, aged.NumSetupViolations)
	if len(aged.Pairs) == 0 {
		log.Fatal("no aging-prone paths found; try a more biased workload")
	}
	worst := aged.Pairs[0]
	fmt.Printf("worst pair: %s -> %s (slack %.1fps)\n\n",
		nl.Cells[worst.Start].Name, nl.Cells[worst.End].Name, worst.WorstSlack)

	// --- Phase 2: failure model + shadow replica + BMC (§3.3) ---
	spec := fault.Spec{
		Type:  sta.Setup,
		Start: worst.Start,
		End:   worst.End,
		C:     fault.C1,
	}
	inst := fault.ShadowReplica(nl, spec)
	fmt.Printf("instrumented %q: %d cells cloned into the shadow replica, cover points: ",
		spec.Name(nl), inst.ConeCells)
	for _, cp := range inst.Covers {
		fmt.Printf("%s ", cp.Name)
	}
	fmt.Println()

	res := bmc.Cover(inst.Netlist, inst.Covers, bmc.Config{})
	if res.Verdict != bmc.Covered {
		log.Fatalf("BMC verdict: %v", res.Verdict)
	}
	fmt.Printf("BMC found a trace at depth %d covering %s at cycle %d (cf. the paper's Table 2):\n",
		res.Depth, res.Trace.CoverPoint.Name, res.Trace.CoverCycle+1)
	fmt.Printf("  cycle:")
	for t := 0; t < res.Trace.Cycles; t++ {
		fmt.Printf("  %4d", t+1)
	}
	fmt.Println()
	for _, port := range []string{"a", "b"} {
		fmt.Printf("  %-5s:", port)
		for _, v := range res.Trace.Inputs[port] {
			fmt.Printf("  'b%02b", v)
		}
		fmt.Println()
	}

	// --- Replay: watch the original and shadow outputs diverge ---
	rs := engine.NewPacked(engine.Cached(inst.Netlist))
	fmt.Printf("  o[1] :")
	vals := make([]bool, 0, res.Trace.Cycles)
	shadows := make([]bool, 0, res.Trace.Cycles)
	for t := 0; t < res.Trace.Cycles; t++ {
		rs.SetInput("a", res.Trace.Inputs["a"][t])
		rs.SetInput("b", res.Trace.Inputs["b"][t])
		rs.Settle()
		vals = append(vals, rs.Lane(res.Trace.CoverPoint.Orig, 0))
		shadows = append(shadows, rs.Lane(res.Trace.CoverPoint.Shadow, 0))
		rs.Edge()
	}
	for _, v := range vals {
		fmt.Printf("   'b%b", b2i(v))
	}
	fmt.Println()
	fmt.Printf("  o_s  :")
	for _, v := range shadows {
		fmt.Printf("   'b%b", b2i(v))
	}
	fmt.Println("\n\nthe shadow (faulty) machine diverges exactly where the model checker promised.")
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
