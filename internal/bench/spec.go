// Package bench is the Vega performance ledger: four workloads that
// stress different layers of the pipeline, end-to-end metrics measured
// on untraced iterations, per-layer metrics from one extra traced
// iteration in which the harness wraps every call into a layer's public
// functions in a span, and correctness oracles that gate every number.
// cmd/vega-bench is its command line; README.md in this directory
// defines every metric and records why each workload was chosen.
package bench

import (
	"encoding/json"
	"fmt"
	"regexp"
)

// Workload names are fixed: later issues cite them.
const (
	LiftFPU    = "lift-fpu"
	ScreenFPU  = "screen-fpu"
	Scale1M    = "scale-1m"
	FleetMixed = "fleet-mixed"
)

// WorkloadDef names one workload and records why it was chosen.
type WorkloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// Workloads lists the four workloads in the order the ledger runs them.
var Workloads = []WorkloadDef{
	{LiftFPU, "the paper's headline path once per process: profile, aging STA and BMC lift of the FPU; bmc and sat do about 80% of the work and the other three workloads never touch them"},
	{ScreenFPU, "suite replay with no SAT in the timed region: scalar gate interpreter under test quality beside packed 64-lane waves under an injection campaign, so a gain for one that costs the other shows"},
	{Scale1M, "million-gate import that bypasses sat, bmc, lift and cpu: Verilog parse, compile, random SP, 4-corner STA, then incremental re-timing; full STA beside patch-writes of the timing graph"},
	{FleetMixed, "in-process fleet daemon behind loopback HTTP, closed loop x 2 clients, 80% sweeps with every 10th cold, 10% ALU lifts, 10% campaigns; persistence, store and HTTP dominate the 2 ms of compute"},
}

// MetricDef declares one metric. Bound is the share of the parent's
// median by which an end-to-end metric may worsen before a change counts
// as a regression; per-layer metrics have none.
type MetricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// End-to-end metric names. Every workload reports every one of them;
// README.md says what each measures on each workload.
const (
	MSetup   = "setup_s"
	MOp      = "op_s"
	MRate    = "rate_per_s"
	MPeakRSS = "peak_rss_mb"
)

// EndToEnd lists the end-to-end metrics with their regression bounds,
// derived from the repeatability sets recorded in README.md.
var EndToEnd = []MetricDef{
	{MOp, "s", "lower", 0.25},
	{MRate, "1/s", "higher", 0.25},
	{MPeakRSS, "MB", "lower", 0.15},
	{MSetup, "s", "lower", 0.25},
}

func lower(name, unit string) MetricDef  { return MetricDef{Name: name, Unit: unit, Better: "lower"} }
func higher(name, unit string) MetricDef { return MetricDef{Name: name, Unit: unit, Better: "higher"} }

// PerLayer lists the per-layer metrics of the traced iteration, named
// layer.metric with layers being package names. A workload that never
// enters a layer reports 0 for it: the prediction "no change" is then
// checked against a number, not an absence.
var PerLayer = []MetricDef{
	// Every workload.
	lower("bench.trace_overhead_share", "share"),
	lower("bench.unattributed_share", "share"),
	lower("bench.loadavg1", "load"),

	// lift-fpu -> op_s.
	lower("core.new_s", "s"),
	lower("cpu.embench_s", "s"),
	lower("cpu.instret", "count"),
	lower("core.profile_s", "s"),
	lower("sim.replay_s", "s"),
	lower("sta.analyze_s", "s"),
	lower("sta.pairs", "count"),
	lower("sta.setup_violations", "count"),
	lower("sta.hold_violations", "count"),
	lower("fault.shadow_s", "s"),
	lower("bmc.cover_s", "s"),
	lower("bmc.cover_max_ms", "ms"),
	lower("lift.convert_s", "s"),
	lower("bmc.queries", "count"),
	lower("bmc.solves", "count"),
	lower("bmc.vars", "count"),
	lower("bmc.clauses", "count"),
	lower("sat.conflicts", "count"),
	lower("sat.propagations", "count"),
	lower("sat.restarts", "count"),
	lower("sat.learnts", "count"),
	higher("sat.props_per_s", "1/s"),
	higher("lift.cases", "count"),
	higher("lift.success_share", "share"),
	lower("lift.suite_cycles", "cycles"),
	lower("engine.cache_misses", "count"),
	lower("engine.cache_evictions", "count"),
	lower("sta.graph_cache_misses", "count"),
	higher("par.lift_speedup_j2", "ratio"),

	// screen-fpu -> op_s (quality) and rate_per_s (campaign).
	lower("fault.failing_netlist_s", "s"),
	lower("core.quality_s", "s"),
	lower("core.vsrandom_s", "s"),
	higher("core.detected_share", "share"),
	lower("inject.universe_s", "s"),
	lower("inject.campaign_s", "s"),
	higher("inject.injections", "count"),
	higher("inject.detected", "count"),
	lower("inject.masked", "count"),
	lower("inject.sdc", "count"),
	lower("inject.stall", "count"),
	lower("inject.waves", "count"),
	higher("inject.occupancy", "share"),
	lower("inject.retired_lanes", "count"),
	lower("inject.fallback_lanes", "count"),
	higher("inject.saved_ops_share", "share"),
	lower("inject.replayed", "count"),
	higher("inject.shortcut", "count"),

	// scale-1m -> op_s and rate_per_s (import + STA), setup_s.
	lower("netlist.parse_s", "s"),
	higher("netlist.parse_mb_per_s", "MB/s"),
	lower("netlist.parse_allocs_per_cell", "1/cell"),
	lower("netlist.cells", "count"),
	lower("engine.compile_s", "s"),
	lower("engine.ops", "count"),
	lower("sta.graph_compile_s", "s"),
	lower("engine.randsp_s", "s"),
	higher("engine.lane_cycles_per_s", "1/s"),
	lower("sta.critical_delay_s", "s"),
	lower("aging.corner_libs_s", "s"),
	lower("sta.analyze4_s", "s"),
	lower("sta.analyze4_alloc_mb", "MB"),
	higher("sta.wns_setup_ps", "ps"),
	lower("sta.incremental_new_s", "s"),
	higher("sta.updates_per_s", "1/s"),
	lower("sta.update_p50_ms", "ms"),
	lower("sta.retimed_ops_per_update", "count"),
	lower("synth.generate_s", "s"),
	lower("netlist.export_s", "s"),

	// fleet-mixed -> op_s (warm sweep), rate_per_s (jobs).
	higher("fleet.jobs", "count"),
	lower("fleet.submit_p50_ms", "ms"),
	lower("fleet.wait_p50_ms", "ms"),
	lower("fleet.result_p50_ms", "ms"),
	lower("fleet.service_warm_p50_ms", "ms"),
	lower("fleet.service_cold_p50_ms", "ms"),
	lower("fleet.sweep_warm_tail_ms", "ms"),
	higher("fleet.sweep_warm_tail_pct", "%"),
	lower("fleet.sweep_cold_p50_ms", "ms"),
	lower("fleet.lift_p50_ms", "ms"),
	lower("fleet.campaign_p50_ms", "ms"),
	lower("fleet.http_requests_per_job", "count"),
	lower("fleet.submit_body_kb", "kB"),
	lower("fleet.retries", "count"),
	lower("fleet.jobs_failed", "count"),
	lower("chaos.fs_ops_per_job", "count"),
	lower("chaos.fsyncs_per_job", "count"),
	lower("chaos.fsync_s", "s"),
	lower("chaos.write_bytes_per_job", "B"),
	lower("store.builds", "count"),
	lower("store.evictions", "count"),
	higher("store.hits", "count"),
	higher("store.coalesced", "count"),
	higher("store.hit_share", "share"),
}

// ExactCounts names the per-layer counts that repeat bit-for-bit at a
// fixed seed. A change meant only to speed the host must leave them
// identical, and `vega-bench compare` checks that it did.
var ExactCounts = []string{
	"cpu.instret", "sta.pairs", "sta.setup_violations", "sta.hold_violations",
	"bmc.queries", "bmc.solves", "bmc.vars", "bmc.clauses",
	"sat.conflicts", "sat.propagations", "sat.restarts", "sat.learnts",
	"lift.cases", "lift.suite_cycles",
	"inject.injections", "inject.detected", "inject.masked", "inject.sdc", "inject.stall",
	"inject.waves", "inject.retired_lanes", "inject.fallback_lanes", "inject.replayed", "inject.shortcut",
	"netlist.cells", "engine.ops",
}

// RunSeconds is how long one contract run measures (BENCHMARK.json's
// run_seconds, and the default of -seconds).
const RunSeconds = 20

// Manifest is the shape of BENCHMARK.json at the repository root.
type Manifest struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []WorkloadDef `json:"workloads"`
	EndToEnd   []MetricDef   `json:"end_to_end"`
	PerLayer   []MetricDef   `json:"per_layer"` // no bounds: the zero Bound is omitted
}

// CurrentManifest renders the tables above as BENCHMARK.json, so the
// file at the root is generated (`vega-bench manifest`) and a test can
// hold the two together.
func CurrentManifest() Manifest {
	return Manifest{
		Command:    []string{"go", "run", "./cmd/vega-bench"},
		Paths:      []string{"cmd/vega-bench", "internal/bench"},
		RunSeconds: RunSeconds,
		Workloads:  Workloads,
		EndToEnd:   EndToEnd,
		PerLayer:   PerLayer,
	}
}

// ManifestJSON is CurrentManifest as indented JSON with a trailing
// newline — the exact bytes of BENCHMARK.json.
func ManifestJSON() []byte {
	data, err := json.MarshalIndent(CurrentManifest(), "", "  ")
	if err != nil {
		panic(err) // static tables of strings and numbers always marshal
	}
	return append(data, '\n')
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// Validate checks a manifest against the limits the benchmark driver
// enforces before it makes a single run.
func (m Manifest) Validate() error {
	if n := len(m.Workloads); n < 2 || n > 8 {
		return fmt.Errorf("bench: %d workloads, want 2..8", n)
	}
	if n := len(m.EndToEnd); n < 1 || n > 16 {
		return fmt.Errorf("bench: %d end-to-end metrics, want 1..16", n)
	}
	if n := len(m.PerLayer); n < 1 || n > 128 {
		return fmt.Errorf("bench: %d per-layer metrics, want 1..128", n)
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		return fmt.Errorf("bench: run_seconds %d outside 1..60", m.RunSeconds)
	}
	seen := map[string]bool{}
	name := func(s string) error {
		if !nameRE.MatchString(s) {
			return fmt.Errorf("bench: bad name %q", s)
		}
		if seen[s] {
			return fmt.Errorf("bench: name %q used twice", s)
		}
		seen[s] = true
		return nil
	}
	metric := func(n, unit, better string) error {
		if err := name(n); err != nil {
			return err
		}
		if !unitRE.MatchString(unit) {
			return fmt.Errorf("bench: metric %s has bad unit %q", n, unit)
		}
		if better != "lower" && better != "higher" {
			return fmt.Errorf("bench: metric %s has direction %q", n, better)
		}
		return nil
	}
	for _, w := range m.Workloads {
		if err := name(w.Name); err != nil {
			return err
		}
		if w.Why == "" || len(w.Why) > 200 {
			return fmt.Errorf("bench: workload %s: why must be 1..200 characters", w.Name)
		}
	}
	setup := false
	for _, d := range m.EndToEnd {
		if err := metric(d.Name, d.Unit, d.Better); err != nil {
			return err
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			return fmt.Errorf("bench: metric %s has bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		if d.Name == MSetup && d.Unit == "s" && d.Better == "lower" {
			setup = true
		}
	}
	if !setup {
		return fmt.Errorf("bench: end-to-end metrics lack setup_s (s, lower)")
	}
	for _, d := range m.PerLayer {
		if err := metric(d.Name, d.Unit, d.Better); err != nil {
			return err
		}
	}
	return nil
}
