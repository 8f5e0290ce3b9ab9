// vega-synth is the million-gate scale driver: it generates a parametric
// pipelined core sized to a target cell count, round-trips it through the
// streaming Verilog writer/parser, compiles it for both evaluation
// engines, runs a batched multi-corner aging STA over a random SP
// profile, and demonstrates incremental re-timing against sparse SP
// deltas — printing wall time and bytes allocated for every stage. It is
// the command behind the scale numbers in EXPERIMENTS.md and
// BENCH_scale.json.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/aging"
	"repro/internal/cell"
	"repro/internal/engine"
	"repro/internal/netlist"
	"repro/internal/sta"
	"repro/internal/synth"
)

// stage runs f and prints its wall time and allocation delta. The GC runs
// first so TotalAlloc deltas attribute bytes to the stage that asked for
// them, not to a survivor of the previous one.
func stage(label string, f func()) {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	f()
	el := time.Since(t0)
	runtime.ReadMemStats(&m1)
	fmt.Printf("  %-22s %10.1f ms  %9.1f MiB allocated\n",
		label, float64(el.Microseconds())/1000,
		float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20))
}

type countingWriter struct{ n int64 }

func (w *countingWriter) Write(p []byte) (int, error) { w.n += int64(len(p)); return len(p), nil }

func main() {
	cells := flag.Int("cells", 100000, "target cell count for the generated core")
	nCorners := flag.Int("corners", 4, "corners in the multi-corner STA (lifetimes spread over 0..-years)")
	years := flag.Float64("years", 10, "oldest corner's assumed lifetime")
	deltas := flag.Int("deltas", 100, "SP deltas for the incremental re-timing demonstration")
	roundtrip := flag.Bool("roundtrip", true, "export the generated core to Verilog and re-parse it")
	jobs := flag.Int("j", 0, "worker parallelism for the STA report phase (0 = all CPUs)")
	seed := flag.Int64("seed", 1, "seed for the random SP profile and the delta selection")
	flag.Parse()

	p := synth.PipelineForCells(*cells)
	fmt.Printf("pipeline: %d stages x %d lanes, %d-bit datapath (target %d cells)\n",
		p.Stages, p.Lanes, p.Width, *cells)

	var nl *netlist.Netlist
	stage("generate", func() { nl = p.Build() })
	st := nl.Stats()
	fmt.Printf("  -> %d cells (%d DFFs, %d comb, %d clock), %d nets\n",
		st.Cells, st.DFFs, st.Comb, st.ClockCells, st.Nets)

	if *roundtrip {
		var cw countingWriter
		stage("export verilog", func() {
			if err := nl.WriteVerilog(&cw); err != nil {
				log.Fatal(err)
			}
		})
		fmt.Printf("  -> %.1f MiB of Verilog\n", float64(cw.n)/(1<<20))
		pr, pw := io.Pipe()
		go func() { pw.CloseWithError(nl.WriteVerilog(pw)) }()
		var back *netlist.Netlist
		stage("parse verilog", func() {
			var err error
			back, err = netlist.ParseVerilogReader(pr)
			if err != nil {
				log.Fatal(err)
			}
		})
		if back.Stats() != st {
			log.Fatalf("round trip changed the netlist: %+v -> %+v", st, back.Stats())
		}
	}

	var prog *engine.Program
	stage("compile (engine)", func() { prog = engine.Compile(nl) })
	fmt.Printf("  -> %s\n", prog.Stats())

	stage("compile (timing)", func() { sta.CachedGraph(nl) })

	lib := cell.Lib28()
	rng := rand.New(rand.NewSource(*seed))
	prof := &engine.Profile{Cycles: 1, SP: make([]float64, nl.NumNets)}
	for i := range prof.SP {
		prof.SP[i] = rng.Float64()
	}
	cfg := sta.BatchConfig{
		PeriodPs:    sta.CriticalDelay(nl, lib) * 1.05,
		Base:        lib,
		Model:       aging.Default(),
		Profile:     prof,
		PerEndpoint: 40,
		Parallelism: *jobs,
	}
	corners := make([]sta.Corner, *nCorners)
	for i := range corners {
		if *nCorners > 1 {
			corners[i] = sta.Corner{Years: *years * float64(i) / float64(*nCorners-1)}
		} else {
			corners[i] = sta.Corner{Years: *years}
		}
	}
	var results []*sta.Result
	stage(fmt.Sprintf("full STA (%d corners)", len(corners)), func() {
		results = sta.AnalyzeCorners(nl, cfg, corners)
	})
	last := results[len(results)-1]
	fmt.Printf("  -> @%gy: WNS setup %+.1fps (%d violations), hold %+.1fps (%d)\n",
		corners[len(corners)-1].Years, last.WNSSetup, last.NumSetupViolations,
		last.WNSHold, last.NumHoldViolations)

	// Incremental demonstration: perturb a sparse set of net SPs and
	// re-time only the affected fanout cones, against the cost of a full
	// re-analysis over the same mutated profile.
	var inc *sta.Incremental
	stage("incremental warmup", func() { inc = sta.NewIncremental(nl, cfg, corners) })
	defer inc.Close()
	changed := make([]netlist.NetID, *deltas)
	for i := range changed {
		n := netlist.NetID(rng.Intn(nl.NumNets))
		prof.SP[n] = rng.Float64()
		changed[i] = n
	}
	stage(fmt.Sprintf("incremental (%d deltas)", *deltas), func() { inc.UpdateSP(changed) })
	fmt.Printf("  -> re-timed %d of %d combinational ops\n",
		inc.LastRetimed, st.Comb)
	stage("full STA (re-run)", func() { sta.AnalyzeCorners(nl, cfg, corners) })

	es, gs := engine.CacheStats(), sta.GraphCacheStats()
	fmt.Printf("caches: programs %d hit, %d compiled; graphs %d hit, %d compiled\n",
		es.Hits, es.Misses, gs.Hits, gs.Misses)
}
