// vega-aginglib prints the paper's Figure 4 (cell delay degradation vs
// signal probability over time) and emits the generated software aging
// library (§3.4.1): a C file with one inline-assembly function per test
// case plus scheduling helpers, and a Go (cgo) wrapper.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro/internal/aging"
	"repro/internal/cell"
	"repro/internal/core"
	"repro/internal/integrate"
	"repro/internal/lift"
)

func main() {
	outDir := flag.String("out", ".", "directory for the generated library sources")
	years := flag.Float64("years", 10, "assumed lifetime in years")
	jobs := flag.Int("j", 0, "worker parallelism (0 = all CPUs, 1 = sequential)")
	flag.Parse()

	// Figure 4: switching-delay degradation of the 28nm XOR cell.
	fmt.Println("Figure 4 — XOR cell delay degradation over a 10-year period:")
	model := aging.Default()
	fmt.Printf("%8s", "years")
	sps := []float64{0.0, 0.25, 0.5, 0.75, 1.0}
	for _, sp := range sps {
		fmt.Printf("  SP=%.2f", sp)
	}
	fmt.Println()
	for _, yr := range []float64{0.5, 1, 2, 4, 6, 8, 10} {
		fmt.Printf("%8.1f", yr)
		for _, sp := range sps {
			f := model.DelayFactor(cell.XOR2, sp, yr)
			fmt.Printf("  %+5.2f%%", (f-1)*100)
		}
		fmt.Println()
	}
	fmt.Println()

	// Generate the aging library from freshly lifted suites.
	cfg := core.Config{Years: *years, Parallelism: *jobs, Lift: lift.Config{Mitigation: true}}
	var suites []*lift.Suite
	for _, mk := range []func(core.Config) *core.Workflow{core.NewALU, core.NewFPU} {
		w := mk(cfg)
		fmt.Printf("lifting %s ...\n", w.Describe())
		if _, err := w.ErrorLifting(); err != nil {
			log.Fatal(err)
		}
		suites = append(suites, w.Suite())
	}

	cPath := filepath.Join(*outDir, "vega_aging.c")
	goPath := filepath.Join(*outDir, "vega_aging_wrapper.go")
	src, err := integrate.GenerateC(suites)
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(cPath, []byte(src), 0o644); err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(goPath, []byte(integrate.GenerateGoWrapper()), 0o644); err != nil {
		log.Fatal(err)
	}
	total := 0
	for _, s := range suites {
		total += len(s.Cases)
	}
	fmt.Printf("wrote %s and %s (%d test cases)\n", cPath, goPath, total)
}
