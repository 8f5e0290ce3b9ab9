// vega-sta runs the Aging Analysis phase for the ALU and FPU and prints
// the paper's Table 3 (aging-aware STA results) and Figure 8 (delay-
// degradation histogram).
//
// SIGINT/SIGTERM are honoured at unit boundaries via the shared
// internal/sigctx path: the unit currently being analyzed finishes, the
// tables cover the units completed so far, and the process exits with
// code 130. A second signal kills immediately.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/report"
	"repro/internal/sigctx"
	"repro/internal/sta"
)

// timed runs f and, when -stats is on, prints its wall time and
// allocation delta (a GC first, so TotalAlloc attributes bytes to this
// stage rather than survivors of the previous one).
func timed(on bool, label string, f func()) {
	if !on {
		f()
		return
	}
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	f()
	el := time.Since(t0)
	runtime.ReadMemStats(&m1)
	fmt.Printf("  [stats] %-18s %9.1f ms  %8.1f MiB allocated\n",
		label, float64(el.Microseconds())/1000,
		float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20))
}

func main() {
	years := flag.Float64("years", 10, "assumed lifetime in years")
	bins := flag.Int("bins", 12, "histogram bins for Figure 8")
	paths := flag.Bool("paths", true, "print the worst aged path per unit")
	sweep := flag.Bool("sweep", false, "sweep lifetimes and report failure onset")
	sweepStep := flag.Float64("sweep-step", 0,
		"with -sweep: sample every STEP years from 0 to -years instead of the default coarse grid (fine grids are cheap: all corners run in one batched pass)")
	jobs := flag.Int("j", 0, "worker parallelism (0 = all CPUs, 1 = sequential)")
	randomSP := flag.Int("random-sp", 0,
		"profile-free mode: collect the SP profile from this many 64-lane packed cycles of uniform random stimulus instead of workload replay")
	stats := flag.Bool("stats", false,
		"print per-phase wall time and bytes allocated (profile, timing-graph compile, analysis) plus compiled-artifact cache counters")
	flag.Parse()

	ctx, stopSignals := sigctx.Notify(context.Background())
	defer stopSignals()

	cfg := core.Config{Years: *years, Parallelism: *jobs}
	var rows [][]string
	for _, mk := range []func(core.Config) *core.Workflow{core.NewALU, core.NewFPU} {
		if sigctx.Interrupted(ctx) {
			fmt.Println("interrupted — skipping remaining units")
			break
		}
		w := mk(cfg)
		fmt.Printf("analyzing %s ...\n", w.Describe())
		if *randomSP > 0 {
			if _, err := w.RandomSPProfile(*randomSP, 1); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  SP profile: random stimulus, %d packed cycles (%d lane-cycles)\n",
				*randomSP, w.SPProfile.Cycles)
		}
		if *stats && w.SPProfile == nil {
			timed(true, "profile workloads", func() {
				if err := w.ProfileWorkloads(); err != nil {
					log.Fatal(err)
				}
			})
		}
		timed(*stats, "compile (timing)", func() { sta.CachedGraph(w.Module.Netlist) })
		var agingErr error
		timed(*stats, "aging STA", func() { _, agingErr = w.AgingAnalysis() })
		if agingErr != nil {
			log.Fatal(agingErr)
		}
		var fresh *sta.Result
		timed(*stats, "fresh STA", func() { fresh = w.FreshAnalysis() })
		fmt.Printf("  fresh signoff: WNS setup %+.1fps, WNS hold %+.1fps (must both be positive)\n",
			fresh.WNSSetup, fresh.WNSHold)
		t3 := w.Table3()
		setup := "-"
		if t3.SetupPaths > 0 {
			setup = fmt.Sprintf("%.0fps / %d", t3.WNSSetupPs, t3.SetupPaths)
		}
		hold := "- / 0"
		if t3.HoldPaths > 0 {
			hold = fmt.Sprintf("%.0fps / %d", t3.WNSHoldPs, t3.HoldPaths)
		}
		rows = append(rows, []string{t3.Unit, setup, hold, fmt.Sprint(t3.UniquePairs)})

		fmt.Printf("\nFigure 8 — aging-induced delay increase (%s):\n", w.Module.Name)
		fmt.Print(report.Histogram(w.Figure8(*bins), 40))
		if *paths && len(w.STA.Pairs) > 0 {
			rep, err := sta.WorstPath(w.Module.Netlist, w.STA.Config, w.STA.Pairs[0].End)
			if err == nil {
				fmt.Printf("\nworst aged path (%s):\n%s", w.Module.Name, rep)
			}
		}
		if *sweep {
			grid := []float64{0, 1, 2, 3, 5, 7, 10}
			if *sweepStep > 0 {
				grid = grid[:0]
				for yr := 0.0; yr <= *years; yr += *sweepStep {
					grid = append(grid, yr)
				}
			}
			pts, err := w.LifetimeSweep(grid)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("\nlifetime sweep (%s):\n", w.Module.Name)
			for _, p := range pts {
				fmt.Printf("  %6.2fy  WNS setup %+8.1fps (%4d paths)  hold %+8.1fps (%d)\n",
					p.Years, p.WNSSetup, p.SetupViolations, p.WNSHold, p.HoldViolations)
			}
			fmt.Printf("  failure onset: %g years\n", core.FailureOnsetYears(pts))
		}
		fmt.Println()
	}

	fmt.Println("Table 3 — STA result with aging-aware timing libraries:")
	fmt.Print(report.Table(
		[]string{"Unit", "WNS / setup paths", "WNS / hold paths", "unique pairs"},
		rows))
	if *stats {
		es, gs := engine.CacheStats(), sta.GraphCacheStats()
		fmt.Printf("\ncaches: programs %d hit, %d compiled; graphs %d hit, %d compiled\n",
			es.Hits, es.Misses, gs.Hits, gs.Misses)
	}
	if sigctx.Interrupted(ctx) {
		os.Exit(sigctx.ExitInterrupted)
	}
}
