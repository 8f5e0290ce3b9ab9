// vega-quality evaluates the generated test suites against the emulated
// aged silicon — every covered pair's failure model, run as packed fault
// waves beside a golden lane — and prints the paper's Table 6 (detection
// quality per failure mode, with/without mitigation) and Table 7 (Vega
// vs random test suites).
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/lift"
	"repro/internal/report"
)

func main() {
	seeds := flag.Int("seeds", 10, "random-suite seeds for Table 7")
	years := flag.Float64("years", 10, "assumed lifetime in years")
	jobs := flag.Int("j", 0, "worker parallelism (0 = all CPUs, 1 = sequential)")
	flag.Parse()

	var t6rows, t7rows [][]string
	for _, mk := range []func(core.Config) *core.Workflow{core.NewALU, core.NewFPU} {
		var suites [2]*lift.Suite
		var flows [2]*core.Workflow
		for i, mitigation := range []bool{false, true} {
			w := mk(core.Config{Years: *years, Parallelism: *jobs, Lift: lift.Config{Mitigation: mitigation}})
			fmt.Printf("lifting %s (mitigation=%v) ...\n", w.Describe(), mitigation)
			if _, err := w.ErrorLifting(); err != nil {
				log.Fatal(err)
			}
			suites[i] = w.Suite()
			flows[i] = w
		}

		for i, mitigation := range []bool{false, true} {
			fmt.Printf("evaluating %s suite (mitigation=%v, %d cases) against failing netlists ...\n",
				flows[i].Module.Name, mitigation, len(suites[i].Cases))
			qrows, err := flows[i].TestQuality(suites[i])
			if err != nil {
				log.Fatal(err)
			}
			for _, q := range qrows {
				t6rows = append(t6rows, []string{
					q.Unit, cfg(mitigation), q.FM.String(),
					report.Pct(q.Pct(q.Detected)), report.Pct(q.Pct(q.Before)),
					report.Pct(q.Pct(q.Later)), report.Pct(q.Pct(q.Stall)),
				})
			}
		}

		fmt.Printf("Table 7 comparison for %s (%d random seeds) ...\n", flows[0].Module.Name, *seeds)
		vrows, err := flows[0].VsRandom(suites[0], *seeds)
		if err != nil {
			log.Fatal(err)
		}
		for _, r := range vrows {
			t7rows = append(t7rows, []string{
				r.Unit, r.FM.String(),
				report.Pct(r.VegaPct), report.Pct(r.RandomPct),
			})
		}
	}

	fmt.Println("\nTable 6 — quality of the generated test cases (% of failing netlists):")
	fmt.Print(report.Table(
		[]string{"Unit", "Config", "FM", "Det.", "B", "L", "S"}, t6rows))
	fmt.Println("\nTable 7 — Vega vs random test suites (% detected):")
	fmt.Print(report.Table([]string{"Unit", "FM", "Vega", "Random"}, t7rows))
}

func cfg(m bool) string {
	if m {
		return "w/ mitig"
	}
	return "w/o mitig"
}
