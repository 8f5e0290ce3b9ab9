package bench

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/aging"
	"repro/internal/cell"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/netlist"
	"repro/internal/sim"
	"repro/internal/sta"
	"repro/internal/synth"
)

func scalePath(dir string) string { return filepath.Join(dir, "scale.v") }

// scaleSetup is scale-1m's set-up, run by the parent: generate the
// pipelined core sized to p.Cells and export it as Verilog for the
// children to import. It returns the two stage times.
func scaleSetup(dir string, p Params) (generateS, exportS float64, err error) {
	t0 := time.Now()
	nl := synth.PipelineForCells(p.Cells).Build()
	generateS = time.Since(t0).Seconds()
	t0 = time.Now()
	var buf bytes.Buffer
	if err := nl.WriteVerilog(&buf); err != nil {
		return 0, 0, err
	}
	if err := os.WriteFile(scalePath(dir), buf.Bytes(), 0o644); err != nil {
		return 0, 0, err
	}
	return generateS, time.Since(t0).Seconds(), nil
}

// sweepCorners is fleetd's default lifetime grid.
var sweepCorners = []sta.Corner{{Years: 0}, {Years: 3.3}, {Years: 6.6}, {Years: 10}}

// SPDeltas returns update u's seeded signal-probability deltas: which
// nets move and to what value. It is a function of (seed, u, nets, n)
// alone, so every iteration of a run — and the from-scratch oracle —
// sees the same mutation sequence.
func SPDeltas(seed int64, u, nets, n int) (ids []netlist.NetID, sp []float64) {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(u)))
	ids = make([]netlist.NetID, n)
	sp = make([]float64, n)
	for i := range ids {
		ids[i] = netlist.NetID(rng.Intn(nets))
		sp[i] = rng.Float64()
	}
	return ids, sp
}

// digestResults hashes what a sweep reads from each corner's result —
// slacks, violation counts, the pair census — plus every cell's aging
// factor bit for bit.
func digestResults(results []*sta.Result) string {
	var buf bytes.Buffer
	for _, r := range results {
		fmt.Fprintf(&buf, "%x %x %d %d %v %v\n", math.Float64bits(r.WNSSetup), math.Float64bits(r.WNSHold),
			r.NumSetupViolations, r.NumHoldViolations, r.Truncated, r.Pairs)
		_ = binary.Write(&buf, binary.LittleEndian, r.Factor) // bytes.Buffer writes cannot fail
	}
	return digest(buf.Bytes())
}

// runScale is one iteration of scale-1m, once per process: import the
// exported core exactly as fleetd's sweep runner does (parse, critical
// delay, packed random SP, corner libraries, 4-corner STA), then re-time
// it incrementally under seeded SP deltas. sat, bmc, lift and cpu are
// never entered.
func runScale(cfg ChildConfig) (*ChildReport, error) {
	rep := newChildReport()
	rep.Attempted = 1
	p := cfg.Params
	src, err := os.ReadFile(scalePath(cfg.Dir))
	if err != nil {
		return nil, err
	}
	text, srcBytes := string(src), len(src)
	src = nil
	var tr *Tracer
	if cfg.Trace {
		tr = NewTracer(cfg.Iter)
	}
	L := rep.Layer
	var m0, m1 runtime.MemStats
	lib := cell.Lib28()

	iterStart := time.Now()
	root := tr.Start(Scale1M, 0)
	var nl *netlist.Netlist
	if tr != nil {
		runtime.ReadMemStats(&m0)
	}
	tr.Do("netlist.parse", root, func() { nl, err = netlist.ParseVerilog(text) })
	if err != nil {
		return nil, err
	}
	if tr != nil {
		runtime.ReadMemStats(&m1)
		L["netlist.parse_allocs_per_cell"] = float64(m1.Mallocs-m0.Mallocs) / float64(len(nl.Cells))
		// The sweep chain compiles both program forms lazily inside its
		// first consumer; calling the public cache entry points first
		// gives each compile its own span and leaves the total unchanged.
		tr.Do("sta.graph_compile", root, func() { sta.CachedGraph(nl) })
	}
	var period float64
	tr.Do("sta.critical_delay", root, func() { period = sta.CriticalDelay(nl, lib) * 1.05 })
	if tr != nil {
		tr.Do("engine.compile", root, func() { L["engine.ops"] = float64(len(engine.Cached(nl).Ops)) })
	}
	var prof *sim.Profile
	tr.Do("engine.randsp", root, func() { prof, err = core.RandomSP(nl, p.SPCycles, cfg.Seed, 1) })
	if err != nil {
		return nil, err
	}
	bc := sta.BatchConfig{PeriodPs: period, Base: lib, Model: aging.Default(), Profile: prof, PerEndpoint: 40, Parallelism: 1}
	withLibs := bc
	tr.Do("aging.corner_libs", root, func() { withLibs.Libs = sta.CornerLibraries(nl.Name, bc, sweepCorners) })
	var first []*sta.Result
	if tr != nil {
		runtime.ReadMemStats(&m0)
	}
	tr.Do("sta.analyze4", root, func() { first = sta.AnalyzeCorners(nl, withLibs, sweepCorners) })
	importS := time.Since(iterStart).Seconds()
	if tr != nil {
		runtime.ReadMemStats(&m1)
		L["sta.analyze4_alloc_mb"] = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
	}
	rep.Digests["corners"] = digestResults(first)

	retimeStart := time.Now()
	var inc *sta.Incremental
	tr.Do("sta.incremental_new", root, func() {
		inc = sta.NewIncremental(nl, bc, sweepCorners)
		inc.Results()
	})
	defer inc.Close()
	var last []*sta.Result
	var retimed int
	updateMs := make([]float64, 0, p.Updates)
	for u := 0; u < p.Updates; u++ {
		ids, sp := SPDeltas(cfg.Seed, u, nl.NumNets, p.Deltas)
		t0 := time.Now()
		tr.Do("sta.update", root, func() {
			for i, n := range ids {
				prof.SP[n] = sp[i]
			}
			last = inc.UpdateSP(ids)
		})
		updateMs = append(updateMs, float64(time.Since(t0))/1e6)
		retimed += inc.LastRetimed
	}
	retimeS := time.Since(retimeStart).Seconds()
	tr.End(root)

	// The re-timing rate is a per-layer metric only: as an end-to-end
	// one its run-to-run spread (22-24% in two of three repeatability
	// sets, every child of a run slow together) sat on the largest bound
	// a metric may have. README.md records it as a lead.
	rep.sample(MOp, importS)
	rep.sample(MRate, float64(len(nl.Cells))/importS)
	rep.sample("iter_s", time.Since(iterStart).Seconds())

	// Oracle, off the clock: a from-scratch analysis of the mutated
	// profile must agree with the incremental engine byte for byte.
	rep.Digests["retimed"] = digestResults(last)
	rep.check("Incremental results vs from-scratch AnalyzeCorners on the mutated profile",
		rep.Digests["retimed"], digestResults(sta.AnalyzeCorners(nl, bc, sweepCorners)))

	if tr == nil {
		return rep, nil
	}
	rep.Spans = tr.Spans()
	by := TotalByName(rep.Spans)
	L["netlist.parse_s"] = by["netlist.parse"]
	L["netlist.parse_mb_per_s"] = float64(srcBytes) / 1e6 / by["netlist.parse"]
	L["netlist.cells"] = float64(len(nl.Cells))
	L["engine.compile_s"] = by["engine.compile"]
	L["sta.graph_compile_s"] = by["sta.graph_compile"]
	L["engine.randsp_s"] = by["engine.randsp"]
	L["engine.lane_cycles_per_s"] = float64(p.SPCycles*engine.Lanes) / by["engine.randsp"]
	L["sta.critical_delay_s"] = by["sta.critical_delay"]
	L["aging.corner_libs_s"] = by["aging.corner_libs"]
	L["sta.analyze4_s"] = by["sta.analyze4"]
	L["sta.wns_setup_ps"] = first[len(first)-1].WNSSetup
	L["sta.incremental_new_s"] = by["sta.incremental_new"]
	L["sta.updates_per_s"] = float64(p.Updates) / retimeS
	L["sta.update_p50_ms"] = Median(updateMs)
	L["sta.retimed_ops_per_update"] = float64(retimed) / float64(p.Updates)
	return rep, nil
}
