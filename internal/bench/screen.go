package bench

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/inject"
	"repro/internal/lift"
)

// budgetLoop calls op with i = 0, 1, ... for about seconds: it starts
// another operation only while the elapsed time plus half the mean
// operation so far stays inside the budget, so a run of 10 s operations
// in a 20 s budget makes two, not three. It always makes one.
func budgetLoop(seconds float64, op func(i int) error) error {
	start := time.Now()
	for i := 0; ; i++ {
		if err := op(i); err != nil {
			return err
		}
		elapsed := time.Since(start).Seconds()
		if elapsed+elapsed/float64(i+1)/2 > seconds {
			return nil
		}
	}
}

// campaignSeed gives every campaign of every run its own fault
// universe. The traced pass is campaign 0 again, so its report must
// digest equal to the first untraced one.
func campaignSeed(seed int64, iter int) uint64 { return uint64(seed)*1000 + uint64(iter) }

// campaignShare is the part of the measuring budget spent on campaigns;
// the quality experiments get the rest.
const campaignShare = 0.4

// runScreen is screen-fpu: suite replay with no SAT in the timed region.
// Set-up lifts the unit's suite once. The timed region uses one layer
// two ways: injection campaigns (packed 64-lane waves), then the
// test-quality and vs-random experiments (the scalar gate interpreter
// under a netlist-backed CPU).
//
// The campaigns run first, as a block. Interleaved with the quality
// experiments in one process their rate swung between 670 and 1490
// injections/s from one iteration to the next: the quality experiments
// leave about 1 GB of failing netlists pinned in engine.Cached, and a
// campaign's speed then depends on how many collections of that heap
// land inside it. The block order measures each path's own cost; the
// cross-talk is recorded in README.md as a lead, not hidden in a spread.
func runScreen(ctx context.Context, cfg ChildConfig) (*ChildReport, error) {
	rep := newChildReport()
	p := cfg.Params

	t0 := time.Now()
	w := newWorkflow(p.Unit, p.Embench)
	if _, err := w.ErrorLifting(); err != nil {
		return nil, err
	}
	suite := w.Suite()
	rep.sample(MSetup, time.Since(t0).Seconds())

	var tr *Tracer
	if cfg.Trace {
		tr = NewTracer(cfg.Iter)
	}
	engine0 := engine.CacheStats()
	root := tr.Start(ScreenFPU, 0)

	var campaignS, qualityS []float64
	var lastRep *inject.Report
	var lastStats *inject.PackedStats
	campaign := func(i int) error {
		rep.Attempted++
		t0 := time.Now()
		var err error
		tr.Do("inject.campaign", root, func() {
			lastRep, lastStats, err = w.InjectionCampaignStats(ctx,
				core.InjectOptions{Seed: campaignSeed(cfg.Seed, i), PerClass: p.PerClass})
		})
		if err != nil {
			return err
		}
		d := time.Since(t0).Seconds()
		campaignS = append(campaignS, d)
		rep.sample(MRate, float64(lastRep.Completed)/d)
		checkCampaign(rep, lastRep, i)
		if i == 0 {
			data, err := lastRep.JSON()
			if err != nil {
				return err
			}
			rep.Digests["campaign"] = digest(data)
		}
		return nil
	}

	var lastRows []core.QualityRow
	quality := func(i int) error {
		rep.Attempted++
		t0 := time.Now()
		var vs []core.VsRandomRow
		var err error
		tr.Do("core.quality", root, func() { lastRows, err = w.TestQuality(suite) })
		if err != nil {
			return err
		}
		tr.Do("core.vsrandom", root, func() { vs, err = w.VsRandom(suite, p.VsRandomSeeds) })
		if err != nil {
			return err
		}
		d := time.Since(t0).Seconds()
		qualityS = append(qualityS, d)
		rep.sample(MOp, d)
		// The quality experiments have no seeded input, so every pass
		// must reproduce the same rows.
		dg, err := digestJSON(struct {
			Quality  []core.QualityRow
			VsRandom []core.VsRandomRow
		}{lastRows, vs})
		if err != nil {
			return err
		}
		if i == 0 {
			rep.Digests["quality"] = dg
		}
		rep.check(fmt.Sprintf("quality pass %d rows vs pass 0", i), dg, rep.Digests["quality"])
		return nil
	}

	if tr == nil {
		if err := budgetLoop(cfg.Seconds*campaignShare, campaign); err != nil {
			return nil, err
		}
		if err := budgetLoop(cfg.Seconds*(1-campaignShare), quality); err != nil {
			return nil, err
		}
	} else {
		if err := campaign(0); err != nil {
			return nil, err
		}
		if err := quality(0); err != nil {
			return nil, err
		}
	}
	tr.End(root)
	for i := 0; i < min(len(campaignS), len(qualityS)); i++ {
		rep.sample("iter_s", campaignS[i]+qualityS[i])
	}
	if tr == nil {
		return rep, nil
	}

	rep.Spans = tr.Spans()
	by := TotalByName(rep.Spans)
	L := rep.Layer
	L["core.quality_s"] = by["core.quality"]
	L["core.vsrandom_s"] = by["core.vsrandom"]
	L["inject.campaign_s"] = by["inject.campaign"]
	var detected, total int
	for _, r := range lastRows {
		detected += r.Detected
		total += r.Total
	}
	if total > 0 {
		L["core.detected_share"] = float64(detected) / float64(total)
	}
	engine1 := engine.CacheStats()
	L["engine.cache_misses"] = float64(engine1.Misses - engine0.Misses)
	L["engine.cache_evictions"] = float64(engine1.Evictions - engine0.Evictions)
	L["inject.injections"] = float64(lastRep.Completed)
	for _, c := range lastRep.Classes {
		L["inject.detected"] += float64(c.Detected)
		L["inject.masked"] += float64(c.Masked)
		L["inject.sdc"] += float64(c.SDCEscape)
		L["inject.stall"] += float64(c.StallCrash)
	}
	var slots, used int
	for i := range lastStats.Classes {
		c := &lastStats.Classes[i]
		L["inject.waves"] += float64(c.Waves)
		L["inject.retired_lanes"] += float64(c.Retired)
		L["inject.fallback_lanes"] += float64(c.Fallbacks)
		L["inject.replayed"] += float64(c.Replayed)
		L["inject.shortcut"] += float64(c.Shortcut)
		slots += c.LaneSlots
		used += c.LanesUsed
	}
	if slots > 0 {
		L["inject.occupancy"] = float64(used) / float64(slots)
	}
	L["inject.saved_ops_share"] = lastStats.TotalSavings()

	// Side measurements of two public steps the experiments call
	// internally: building every failing netlist the quality experiment
	// replays against, and sampling the campaign's fault universe.
	t0 = time.Now()
	for _, mode := range []fault.CValue{fault.C0, fault.C1, fault.CRandom} {
		for _, sp := range suiteSpecs(suite) {
			sp.C = mode
			fault.FailingNetlist(w.Module.Netlist, sp)
		}
	}
	L["fault.failing_netlist_s"] = time.Since(t0).Seconds()
	t0 = time.Now()
	inject.SampleUniverse(w.Module, w.STA.Pairs, p.PerClass, campaignSeed(cfg.Seed, 0))
	L["inject.universe_s"] = time.Since(t0).Seconds()
	return rep, nil
}

// suiteSpecs lists the fault spec of every unique pair the suite covers,
// the population TestQuality builds failing netlists for.
func suiteSpecs(s *lift.Suite) []fault.Spec {
	type key struct{ s, e int32 }
	seen := map[key]bool{}
	var out []fault.Spec
	for _, tc := range s.Cases {
		k := key{int32(tc.Spec.Start), int32(tc.Spec.End)}
		if !seen[k] {
			seen[k] = true
			out = append(out, fault.Spec{Type: tc.Spec.Type, Start: tc.Spec.Start, End: tc.Spec.End})
		}
	}
	return out
}

// checkCampaign holds a campaign report to its own arithmetic: nothing
// partial, every sampled injection classified exactly once.
func checkCampaign(rep *ChildReport, c *inject.Report, iter int) {
	if c.Partial || c.Completed != c.Total || len(c.Results) != c.Total || c.Total == 0 {
		rep.fail("iteration %d campaign incomplete: %d/%d classified, partial=%v", iter, c.Completed, c.Total, c.Partial)
		return
	}
	sum := 0
	for _, cl := range c.Classes {
		if cl.Detected+cl.Masked+cl.SDCEscape+cl.StallCrash != cl.Total {
			rep.fail("iteration %d campaign class %s does not add up", iter, cl.Class)
			return
		}
		sum += cl.Total
	}
	if sum != c.Total {
		rep.fail("iteration %d campaign classes cover %d of %d injections", iter, sum, c.Total)
	}
}
