// Package core orchestrates the three-phase Vega workflow end to end:
// representative-workload signal-probability profiling, aging-aware
// static timing analysis, error lifting (failure-model instrumentation +
// bounded model checking + instruction construction), and suite
// assembly. The root vega package and the cmd/ binaries are thin shells
// over this package.
package core

import (
	"context"
	"fmt"

	"repro/internal/aging"
	"repro/internal/alu"
	"repro/internal/cell"
	"repro/internal/cpu"
	"repro/internal/embench"
	"repro/internal/engine"
	"repro/internal/fpu"
	"repro/internal/lift"
	"repro/internal/module"
	"repro/internal/par"
	"repro/internal/sta"
)

// MemSize is the simulated memory size used throughout the workflow.
const MemSize = 1 << 20

// MaxCycles bounds every workload run.
const MaxCycles = 500_000_000

// spBudgetCycles bounds the gate-level signal-probability simulation,
// in module cycles per unit.
const spBudgetCycles = 20000

// maxSampledOps bounds how many recorded operations are replayed at
// gate level.
const maxSampledOps = 400

// Config tunes a workflow run.
type Config struct {
	// Years is the assumed lifetime for the aging analysis (default 10,
	// the mission-critical standard of §3.2.2).
	Years float64
	// Workloads selects the representative benchmarks (default: all of
	// embench).
	Workloads []string
	// Parallelism bounds the worker fan-out of every embarrassingly
	// parallel phase (error lifting, workload profiling, suite replay,
	// sweeps). 0 selects runtime.NumCPU(); 1 runs the plain sequential
	// loops. Results are identical at every setting — parallel phases
	// collect in task-index order and each task derives its own state
	// (clones, simulators, seeds) from its index alone.
	Parallelism int
	// Lift tunes the error-lifting phase.
	Lift lift.Config
}

func (c *Config) fill() {
	if c.Years == 0 {
		c.Years = 10
	}
}

// Workflow carries the state of one unit's analysis.
type Workflow struct {
	Config Config
	Module *module.Module
	Lib    *cell.Library
	Model  *aging.Model
	Scale  float64

	// Filled by ProfileWorkloads:
	OpTrace    []cpu.OpRecord // sampled unit operations
	OpDensity  float64        // unit ops per retired instruction
	SPProfile  *engine.Profile
	TotalInsts uint64

	// Filled by AgingAnalysis:
	STA *sta.Result

	// Filled by ErrorLifting:
	Results []lift.Result // all variants over all unique pairs
}

// NewALU creates a workflow for the ALU.
func NewALU(cfg Config) *Workflow { return newWorkflow(alu.Build(), cfg) }

// NewFPU creates a workflow for the FPU.
func NewFPU(cfg Config) *Workflow { return newWorkflow(fpu.Build(), cfg) }

func newWorkflow(m *module.Module, cfg Config) *Workflow {
	cfg.fill()
	lib := cell.Lib28()
	return &Workflow{
		Config: cfg,
		Module: m,
		Lib:    lib,
		Model:  aging.Default(),
		Scale:  sta.Calibrate(m.Netlist, lib, m.PeriodPs, m.SynthMargin),
	}
}

// ProfileWorkloads runs the representative workloads on the behavioural
// CPU, recording every operation offloaded to the unit, then replays a
// sample of the trace through the synthesized netlist with
// representative idle gaps to collect the signal-probability profile
// (§3.2.1; replaySP). The idle-to-active ratio is what exposes the gated
// clock subtrees of a rarely-used unit to BTI stress.
func (w *Workflow) ProfileWorkloads() error {
	benches := embench.All
	if len(w.Config.Workloads) > 0 {
		benches = benches[:0:0]
		for _, name := range w.Config.Workloads {
			b, ok := embench.ByName(name)
			if !ok {
				return fmt.Errorf("core: unknown workload %q", name)
			}
			benches = append(benches, b)
		}
	}
	ctx := context.Background()

	// Stage 1 — one task per workload: run the behavioural CPU and
	// record the unit's operation trace. Traces are concatenated at the
	// barrier in workload order, so the merged trace is identical to the
	// one a sequential loop over benches would build.
	type workloadRun struct {
		trace   []cpu.OpRecord
		instret uint64
	}
	runs, err := par.Map(ctx, len(benches), w.Config.Parallelism, func(_ context.Context, i int) (workloadRun, error) {
		b := benches[i]
		img, err := b.Build()
		if err != nil {
			return workloadRun{}, fmt.Errorf("core: workload %s: %w", b.Name, err)
		}
		c := cpu.New(MemSize)
		rec := &cpu.Recording{Inner: w.Module.Golden}
		*c.Unit(w.Module.Name) = rec
		c.Load(img)
		if halt := c.Run(MaxCycles); halt != cpu.HaltExit || c.ExitCode != 0 {
			return workloadRun{}, fmt.Errorf("core: workload %s failed (halt=%v exit=%d)", b.Name, halt, c.ExitCode)
		}
		return workloadRun{trace: rec.Trace, instret: c.Instret}, nil
	})
	if err != nil {
		return err
	}
	var trace []cpu.OpRecord
	var totalInsts uint64
	for _, r := range runs {
		trace = append(trace, r.trace...)
		totalInsts += r.instret
	}
	if len(trace) == 0 {
		return fmt.Errorf("core: workloads issued no %s operations", w.Module.Name)
	}
	w.TotalInsts = totalInsts
	w.OpDensity = float64(len(trace)) / float64(totalInsts)

	// Sample ops evenly and derive the idle gap that preserves the
	// unit's duty cycle, bounded by the simulation budget.
	n := len(trace)
	sampleN := min(n, maxSampledOps)
	sampled := make([]cpu.OpRecord, 0, sampleN)
	for i := 0; i < sampleN; i++ {
		sampled = append(sampled, trace[i*n/sampleN])
	}
	w.OpTrace = sampled

	period := w.Module.Latency + 1
	idealGap := int(1/w.OpDensity) - period
	maxGap := (spBudgetCycles - sampleN*period) / sampleN
	gap := idealGap
	if gap > maxGap {
		gap = maxGap
	}
	if gap < 0 {
		gap = 0
	}

	// Stage 2 — replay the sampled ops at gate level, one fixed chunk
	// per lane of the packed evaluator.
	w.SPProfile = replaySP(w.Module, sampled, gap)
	return nil
}

// batchConfig assembles the workflow's standing parameters for the
// batched multi-corner STA engine. The per-endpoint report bound is the
// signoff-style 40-worst-paths window used by every aged analysis.
func (w *Workflow) batchConfig() sta.BatchConfig {
	return sta.BatchConfig{
		PeriodPs:    w.Module.PeriodPs,
		Scale:       w.Scale,
		Base:        w.Lib,
		Model:       w.Model,
		Profile:     w.SPProfile,
		PerEndpoint: 40,
		Parallelism: w.Config.Parallelism,
	}
}

// AgingAnalysis runs the aging-aware STA (§3.2.2) over the SP profile.
func (w *Workflow) AgingAnalysis() (*sta.Result, error) {
	if w.SPProfile == nil {
		if err := w.ProfileWorkloads(); err != nil {
			return nil, err
		}
	}
	res := sta.AnalyzeCorners(w.Module.Netlist, w.batchConfig(),
		[]sta.Corner{{Years: w.Config.Years}})
	w.STA = res[0]
	return w.STA, nil
}

// FreshAnalysis runs the nominal (unaged) STA for signoff comparison.
func (w *Workflow) FreshAnalysis() *sta.Result {
	cfg := w.batchConfig()
	// Fresh signoff keeps the scalar default nworst window (400), like
	// the standalone fresh Analyze it replaced.
	cfg.PerEndpoint = 0
	return sta.AnalyzeCorners(w.Module.Netlist, cfg, []sta.Corner{{}})[0]
}

// ErrorLifting runs failure-model instrumentation, trace generation and
// instruction construction for every unique aging-prone pair (§3.3).
// Pairs are lifted in parallel — each task instruments its own
// structural clone and runs its own BMC/SAT instance — and the results
// are flattened in pair order, so the output matches the sequential loop
// exactly.
func (w *Workflow) ErrorLifting() ([]lift.Result, error) {
	if w.STA == nil {
		if _, err := w.AgingAnalysis(); err != nil {
			return nil, err
		}
	}
	perPair, err := par.Map(context.Background(), len(w.STA.Pairs), w.Config.Parallelism,
		func(_ context.Context, i int) ([]lift.Result, error) {
			p := w.STA.Pairs[i]
			return lift.Construct(w.Module, p.Pair, p.Type, w.Config.Lift), nil
		})
	if err != nil {
		return nil, err
	}
	var all []lift.Result
	for _, rs := range perPair {
		all = append(all, rs...)
	}
	w.Results = all
	return all, nil
}

// LiftStats aggregates the BMC solver effort of the completed error
// lifting per outcome (minimal depths, conflicts, propagations,
// restarts, learnt clauses).
func (w *Workflow) LiftStats() []lift.OutcomeStats {
	return lift.StatsByOutcome(w.Results)
}

// Suite assembles every successfully constructed test case, in pair
// order.
func (w *Workflow) Suite() *lift.Suite {
	s := &lift.Suite{Unit: w.Module.Name}
	for _, r := range w.Results {
		if r.Outcome == lift.Success {
			s.Cases = append(s.Cases, r.Case)
		}
	}
	return s
}

// SuiteCycles measures the cycle cost of running the whole suite once on
// the (healthy, behavioural) CPU — the paper's Table 5 metric.
func SuiteCycles(s *lift.Suite) (uint64, error) {
	if len(s.Cases) == 0 {
		return 0, nil
	}
	img, err := s.Image()
	if err != nil {
		return 0, err
	}
	c := cpu.New(MemSize)
	c.Load(img)
	if halt := c.Run(MaxCycles); halt != cpu.HaltExit || c.ExitCode != 0 {
		return 0, fmt.Errorf("core: suite failed on healthy CPU (halt=%v exit=%d case=%d)",
			halt, c.ExitCode, c.X[9])
	}
	return c.Cycles, nil
}

// MergeSuites concatenates per-unit suites into one integration payload.
func MergeSuites(suites ...*lift.Suite) *lift.Suite {
	out := &lift.Suite{Unit: "ALL"}
	for _, s := range suites {
		out.Cases = append(out.Cases, s.Cases...)
	}
	return out
}

// OnsetPoint is one sample of a lifetime sweep.
type OnsetPoint struct {
	Years           float64
	WNSSetup        float64
	WNSHold         float64
	SetupViolations int
	HoldViolations  int
}

// LifetimeSweep re-runs the aging-aware STA across a range of assumed
// lifetimes, answering the deployment question behind the paper's
// motivation (§2.1): *when* does this unit start violating timing? The
// SP profile is collected once and reused, and all sweep points run as
// one batched multi-corner pass: one timing-graph traversal fills every
// point's arrivals, so dense sweeps cost little more than one Analyze.
// (Fresh points now share the aged points' 40-worst-paths report bound;
// a calibrated fresh design has no violations, so the census is
// unchanged.)
func (w *Workflow) LifetimeSweep(years []float64) ([]OnsetPoint, error) {
	if w.SPProfile == nil {
		if err := w.ProfileWorkloads(); err != nil {
			return nil, err
		}
	}
	corners := make([]sta.Corner, len(years))
	for i, yr := range years {
		corners[i] = sta.Corner{Years: yr}
	}
	results := sta.AnalyzeCorners(w.Module.Netlist, w.batchConfig(), corners)
	points := make([]OnsetPoint, len(years))
	for i, res := range results {
		points[i] = OnsetPoint{
			Years:           years[i],
			WNSSetup:        res.WNSSetup,
			WNSHold:         res.WNSHold,
			SetupViolations: res.NumSetupViolations,
			HoldViolations:  res.NumHoldViolations,
		}
	}
	return points, nil
}

// FailureOnsetYears returns the first swept lifetime with any violation,
// or -1 if the unit survives the whole sweep.
func FailureOnsetYears(points []OnsetPoint) float64 {
	for _, p := range points {
		if p.SetupViolations > 0 || p.HoldViolations > 0 {
			return p.Years
		}
	}
	return -1
}
