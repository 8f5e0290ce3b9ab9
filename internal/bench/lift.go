package bench

import (
	"encoding/json"
	"fmt"
	"slices"
	"time"

	"repro/internal/bmc"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/embench"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/lift"
	"repro/internal/sta"
)

// newWorkflow builds the unit's workflow with every phase sequential:
// on a 2-core box fresh-process spread was +-6.5% at -j 1 against
// +-9-18% at -j 2, and sequential layers let self times sum to the
// end-to-end figure.
func newWorkflow(unit string, embench []string) *core.Workflow {
	cfg := core.Config{Parallelism: 1, Workloads: embench}
	if unit == "ALU" {
		return core.NewALU(cfg)
	}
	return core.NewFPU(cfg)
}

// runLift is one iteration of lift-fpu: the paper's headline path, once
// per process, from workflow construction to the digest of the lifted
// suite. start is the process start, so op_s is what a CLI user waits.
//
// The untraced iteration calls ErrorLifting. The traced one re-expresses
// the lift phase as its public parts per fault spec — ShadowReplica,
// Cover, Convert — and its suite must come out byte-equal: the parent
// compares the digests of all iterations.
func runLift(cfg ChildConfig, start time.Time) (*ChildReport, error) {
	rep := newChildReport()
	rep.Attempted = 1
	var tr *Tracer
	if cfg.Trace {
		tr = NewTracer(cfg.Iter)
	}
	engine0, graph0 := engine.CacheStats(), sta.GraphCacheStats()
	root := tr.Start(LiftFPU, 0)

	var w *core.Workflow
	tr.Do("core.new", root, func() { w = newWorkflow(cfg.Params.Unit, cfg.Params.Embench) })
	var err error
	tr.Do("core.profile", root, func() { err = w.ProfileWorkloads() })
	if err != nil {
		return nil, err
	}
	var res *sta.Result
	tr.Do("sta.analyze", root, func() { res, err = w.AgingAnalysis() })
	if err != nil {
		return nil, err
	}

	liftStart := time.Now()
	var maxCover time.Duration
	if tr == nil {
		if _, err := w.ErrorLifting(); err != nil {
			return nil, err
		}
	} else {
		w.Results, maxCover = liftBySpec(tr, root, w)
	}
	liftS := time.Since(liftStart).Seconds()

	var suiteJSON []byte
	var cycles uint64
	tr.Do("core.suite", root, func() {
		s := w.Suite()
		if cycles, err = core.SuiteCycles(s); err == nil {
			suiteJSON, err = json.Marshal(s)
		}
	})
	if err != nil {
		return nil, err
	}
	rep.Digests["suite"] = digest(suiteJSON)
	tr.End(root)
	opS := time.Since(start).Seconds()

	rep.sample(MOp, opS)
	rep.sample(MRate, float64(len(w.Results))/liftS)
	rep.sample("iter_s", opS)

	cases := len(w.Suite().Cases)
	rep.Digests["suite.shape"] = fmt.Sprintf("%d pairs, %d cases, %d suite cycles", len(res.Pairs), cases, cycles)
	if cases == 0 {
		rep.fail("lift produced no test case")
	}
	if tr == nil {
		return rep, nil
	}

	// Per-layer values of the traced iteration.
	rep.Spans = tr.Spans()
	by := TotalByName(rep.Spans)
	L := rep.Layer
	L["core.new_s"] = by["core.new"]
	L["core.profile_s"] = by["core.profile"]
	L["sta.analyze_s"] = by["sta.analyze"]
	L["fault.shadow_s"] = by["fault.shadow"]
	L["bmc.cover_s"] = by["bmc.cover"]
	L["bmc.cover_max_ms"] = float64(maxCover) / 1e6
	L["lift.convert_s"] = by["lift.convert"]
	L["sta.pairs"] = float64(len(res.Pairs))
	L["sta.setup_violations"] = float64(res.NumSetupViolations)
	L["sta.hold_violations"] = float64(res.NumHoldViolations)
	var st bmc.Stats
	for _, r := range w.Results {
		st = st.Add(r.Stats)
	}
	L["bmc.queries"] = float64(len(w.Results))
	L["bmc.solves"] = float64(st.Solves)
	L["bmc.vars"] = float64(st.Vars)
	L["bmc.clauses"] = float64(st.Clauses)
	L["sat.conflicts"] = float64(st.Solver.Conflicts)
	L["sat.propagations"] = float64(st.Solver.Propagations)
	L["sat.restarts"] = float64(st.Solver.Restarts)
	L["sat.learnts"] = float64(st.Solver.Learnts)
	if by["bmc.cover"] > 0 {
		L["sat.props_per_s"] = float64(st.Solver.Propagations) / by["bmc.cover"]
	}
	L["lift.cases"] = float64(cases)
	L["lift.success_share"] = float64(cases) / float64(len(w.Results))
	L["lift.suite_cycles"] = float64(cycles)
	engine1, graph1 := engine.CacheStats(), sta.GraphCacheStats()
	L["engine.cache_misses"] = float64(engine1.Misses - engine0.Misses)
	L["engine.cache_evictions"] = float64(engine1.Evictions - engine0.Evictions)
	L["sta.graph_cache_misses"] = float64(graph1.Misses - graph0.Misses)

	// Side measurements, after the traced iteration has ended so they
	// are in neither its wall nor its unattributed share. The embench
	// run is the behavioural-CPU half of ProfileWorkloads; the rest of
	// the profile span is the gate-level replay.
	t0 := time.Now()
	var instret uint64
	for _, b := range embench.All {
		if len(cfg.Params.Embench) > 0 && !slices.Contains(cfg.Params.Embench, b.Name) {
			continue
		}
		img, err := b.Build()
		if err != nil {
			return nil, err
		}
		c := cpu.New(core.MemSize)
		c.Load(img)
		if halt := c.Run(core.MaxCycles); halt != cpu.HaltExit || c.ExitCode != 0 {
			return nil, fmt.Errorf("bench: workload %s failed (halt=%v exit=%d)", b.Name, halt, c.ExitCode)
		}
		instret += c.Instret
	}
	L["cpu.embench_s"] = time.Since(t0).Seconds()
	L["cpu.instret"] = float64(instret)
	L["sim.replay_s"] = L["core.profile_s"] - L["cpu.embench_s"]

	// One more ErrorLifting at Parallelism 2 against the sequential
	// lift just traced; its suite is a second oracle for the traced one.
	w2 := *w
	w2.Config.Parallelism = 2
	t0 = time.Now()
	if _, err := w2.ErrorLifting(); err != nil {
		return nil, err
	}
	L["par.lift_speedup_j2"] = liftS / time.Since(t0).Seconds()
	j2, err := json.Marshal(w2.Suite())
	if err != nil {
		return nil, err
	}
	rep.check("ErrorLifting suite vs traced ShadowReplica+Cover+Convert suite", digest(j2), rep.Digests["suite"])
	return rep, nil
}

// liftBySpec is lift.Construct unrolled over every aging-prone pair with
// each public step in its own span. It must stay expression-for-
// expression what ErrorLifting does without mitigation; the suite
// digest check is what notices if it does not.
func liftBySpec(tr *Tracer, root int, w *core.Workflow) (results []lift.Result, maxCover time.Duration) {
	bcfg := lift.BMCConfig(w.Module, w.Config.Lift)
	for _, p := range w.STA.Pairs {
		for _, c := range []fault.CValue{fault.C0, fault.C1} {
			spec := fault.Spec{Type: p.Type, Start: p.Pair.Start, End: p.Pair.End, C: c, Edge: fault.AnyChange}
			var inst *fault.Instrumented
			tr.Do("fault.shadow", root, func() { inst = fault.ShadowReplica(w.Module.Netlist, spec) })
			var res *bmc.Result
			t0 := time.Now()
			tr.Do("bmc.cover", root, func() { res = bmc.Cover(inst.Netlist, inst.Covers, bcfg) })
			maxCover = max(maxCover, time.Since(t0))
			r := lift.Result{Spec: spec, Depth: res.Depth, Stats: res.Stats}
			switch res.Verdict {
			case bmc.Unreachable:
				r.Outcome = lift.Unreachable
			case bmc.Timeout:
				r.Outcome = lift.FormalTimeout
			default:
				tr.Do("lift.convert", root, func() {
					tc, err := lift.Convert(w.Module, spec, res.Trace)
					if err != nil {
						r.Outcome, r.Reason = lift.ConvFail, err.Error()
						return
					}
					r.Outcome, r.Case = lift.Success, tc
				})
			}
			results = append(results, r)
		}
	}
	return results, maxCover
}
