package fleet

import (
	"context"
	"encoding/json"
	"fmt"

	"repro/internal/aging"
	"repro/internal/cell"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/lift"
	"repro/internal/netlist"
	"repro/internal/sta"
	"repro/internal/store"
)

// Cache keys. Every expensive artifact a job produces is published in
// the shared content-addressed store under one of these prefixes, keyed
// by the hash of the submission content it derives from. The chain for
// a sweep job is netlist -> period -> profile -> grid (each key embeds
// the parameters that distinguish it); lift and campaign jobs share one
// fully-built workflow per (unit, years, mitigation). The deepest key
// of each chain doubles as the warm/cold probe at submit time.
func keyNetlist(h string) string { return "netlist:" + h }
func keyPeriod(h string, margin float64) string {
	return fmt.Sprintf("period:%s:m%g", h, margin)
}
func keyProfile(h string, cycles int, seed int64) string {
	return fmt.Sprintf("profile:%s:c%d:s%d", h, cycles, seed)
}
func keyGrid(sp *Spec, h string) string {
	return fmt.Sprintf("grid:%s:m%g:c%d:s%d:y%v", h, sp.Margin, sp.SPCycles, sp.SPSeed, sp.YearsGrid)
}
func keyWorkflow(sp *Spec) string {
	return fmt.Sprintf("workflow:%s:y%g:mit%v", sp.Unit, sp.Years, sp.Mitigation)
}

// probeKey is the deepest artifact key of j's chain — resident iff the
// whole chain was already built, which is what "warm" means to the
// load-test latency split.
func probeKey(j *Job) string {
	switch j.Spec.Kind {
	case KindSweep:
		return keyGrid(&j.Spec, j.NetlistSHA)
	default:
		return keyWorkflow(&j.Spec)
	}
}

// runner executes jobs against the shared store. It is stateless beyond
// the store and the per-job parallelism bound; one runner serves every
// worker.
type runner struct {
	store       *store.Store
	parallelism int
	// fs is the chaos seam campaign checkpoints are written through —
	// the same one the server persists job records with, so one fault
	// plan covers every byte the daemon puts on disk.
	fs chaos.FS
}

// run dispatches on the job kind and returns the result payload. The
// returned bytes are the job's contract: byte-identical to what the
// existing library paths produce for the same inputs (the differential
// tests in server_test.go pin this per kind).
func (r *runner) run(ctx context.Context, j *Job, onProgress func(done, total int)) (json.RawMessage, error) {
	switch j.Spec.Kind {
	case KindLift:
		return r.runLift(&j.Spec)
	case KindSweep:
		return r.runSweep(&j.Spec, j.NetlistSHA)
	case KindCampaign:
		return r.runCampaign(ctx, j, onProgress)
	default:
		return nil, fmt.Errorf("fleet: unknown job kind %q", j.Spec.Kind)
	}
}

// workflow returns the fully-built (profiled, aged, lifted) workflow for
// a lift/campaign spec, building it at most once per (unit, years,
// mitigation) across the whole daemon. The build runs to completion
// inside the store's singleflight, so a shared workflow is always
// complete and thereafter read-only — concurrent campaign jobs read
// Results/STA/Module without synchronization.
func (r *runner) workflow(sp *Spec) (*core.Workflow, error) {
	v, _, err := r.store.Do(keyWorkflow(sp), func() (any, error) {
		mk := core.NewALU
		if sp.Unit == "FPU" {
			mk = core.NewFPU
		}
		w := mk(core.Config{
			Years:       sp.Years,
			Parallelism: r.parallelism,
			Lift:        lift.Config{Mitigation: sp.Mitigation},
		})
		if _, err := w.ErrorLifting(); err != nil {
			return nil, err
		}
		return w, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*core.Workflow), nil
}

// runLift returns the lifted suite, marshalled exactly as the library
// path marshals it (lift.Suite.MarshalJSON via json.Marshal).
func (r *runner) runLift(sp *Spec) (json.RawMessage, error) {
	w, err := r.workflow(sp)
	if err != nil {
		return nil, err
	}
	return json.Marshal(w.Suite())
}

// runCampaign runs the injection campaign against the shared workflow's
// suite. The checkpoint file lives next to the job record, so a killed
// daemon resumes the campaign on restart and still produces the
// byte-identical final report.
func (r *runner) runCampaign(ctx context.Context, j *Job, onProgress func(done, total int)) (json.RawMessage, error) {
	sp := &j.Spec
	w, err := r.workflow(sp)
	if err != nil {
		return nil, err
	}
	total := CampaignTotal(sp.PerClass)
	rep, err := w.InjectionCampaign(ctx, core.InjectOptions{
		Seed:            sp.Seed,
		PerClass:        sp.PerClass,
		MaxCycles:       sp.MaxCycles,
		CheckpointPath:  j.ckpt,
		CheckpointEvery: sp.CheckpointEvery,
		FS:              r.fs,
		OnCheckpoint: func(done int) {
			if onProgress != nil {
				onProgress(done, total)
			}
		},
	})
	if err != nil {
		return nil, err
	}
	if onProgress != nil {
		onProgress(rep.Completed, total)
	}
	if rep.Partial {
		// Interrupted (shutdown or cancel): the caller decides whether
		// to requeue or record the partial report.
		data, jerr := rep.JSON()
		if jerr != nil {
			return nil, jerr
		}
		return data, errPartial
	}
	return rep.JSON()
}

// errPartial marks a gracefully interrupted campaign: the result bytes
// are a valid partial report, and the job is either requeued (daemon
// shutdown) or recorded cancelled (user cancel).
var errPartial = fmt.Errorf("fleet: campaign interrupted before completion")

// runSweep analyzes a submitted netlist across the lifetime grid. Every
// stage reads through the store: concurrent submissions of one netlist
// parse and characterize it exactly once, and re-submissions skip
// straight to the (cheap) per-corner analysis pass against the cached
// grid — the warm path the daemon's latency headline is built on. h is
// the SHA-256 of sp.Verilog the job has carried since submission.
func (r *runner) runSweep(sp *Spec, h string) (json.RawMessage, error) {
	lib := cell.Lib28()

	nv, _, err := r.store.Do(keyNetlist(h), func() (any, error) {
		return netlist.ParseVerilog(sp.Verilog)
	})
	if err != nil {
		return nil, err
	}
	nl := nv.(*netlist.Netlist)

	pv, _, err := r.store.Do(keyPeriod(h, sp.Margin), func() (any, error) {
		return sta.CriticalDelay(nl, lib) * sp.Margin, nil
	})
	if err != nil {
		return nil, err
	}
	period := pv.(float64)

	fv, _, err := r.store.Do(keyProfile(h, sp.SPCycles, sp.SPSeed), func() (any, error) {
		return core.RandomSP(nl, sp.SPCycles, sp.SPSeed, r.parallelism)
	})
	if err != nil {
		return nil, err
	}

	corners := make([]sta.Corner, len(sp.YearsGrid))
	for i, yr := range sp.YearsGrid {
		corners[i] = sta.Corner{Years: yr}
	}
	cfg := sta.BatchConfig{
		PeriodPs:    period,
		Base:        lib,
		Model:       aging.Default(),
		Profile:     fv.(*engine.Profile),
		PerEndpoint: 40,
		Parallelism: r.parallelism,
	}

	gv, _, err := r.store.Do(keyGrid(sp, h), func() (any, error) {
		return sta.CornerLibraries(nl.Name, cfg, corners), nil
	})
	if err != nil {
		return nil, err
	}
	cfg.Libs = gv.([]*aging.Library)

	results := sta.AnalyzeCorners(nl, cfg, corners)
	out := SweepResult{Netlist: nl.Name, Cells: len(nl.Cells), PeriodPs: period}
	for i, res := range results {
		out.Points = append(out.Points, SweepPoint{
			Years:           sp.YearsGrid[i],
			WNSSetup:        res.WNSSetup,
			WNSHold:         res.WNSHold,
			SetupViolations: res.NumSetupViolations,
			HoldViolations:  res.NumHoldViolations,
		})
	}
	return json.MarshalIndent(out, "", "  ")
}

// CampaignTotal is the injection-universe size a campaign spec samples —
// one PerClass draw per each of the four untargeted fault classes (see
// inject.SampleUniverse).
func CampaignTotal(perClass int) int { return 4 * perClass }
