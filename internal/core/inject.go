package core

import (
	"context"
	"fmt"

	"repro/internal/chaos"
	"repro/internal/embench"
	"repro/internal/inject"
	"repro/internal/integrate"
	"repro/internal/isa"
	"repro/internal/profile"
)

// InjectOptions tunes Workflow.InjectionCampaign.
type InjectOptions struct {
	// Seed determines the sampled fault universe (and is recorded in
	// the report and checkpoint).
	Seed uint64
	// PerClass is how many injections to draw per fault class.
	PerClass int
	// Mode selects the program under injection: "standalone" runs the
	// lifted suite image by itself; "embedded" runs a benchmark carrying
	// the suite via profile-guided integration.
	Mode string
	// Workload is the embedded-mode benchmark (default "crc32").
	Workload string
	// Budget is the embedded-mode integration overhead budget
	// (default 0.01).
	Budget float64
	// MaxCycles is the per-injection cycle budget (default: the
	// campaign engine's default).
	MaxCycles uint64
	// CheckpointPath enables checkpoint/resume.
	CheckpointPath string
	// CheckpointEvery overrides the wave size between checkpoints.
	CheckpointEvery int
	// OnCheckpoint, when set, observes every checkpoint write with the
	// number of completed injections (see inject.Config.OnCheckpoint) —
	// the progress hook the fleet daemon surfaces on GET /jobs/{id}.
	OnCheckpoint func(done int)
	// FS is the filesystem seam checkpoint I/O goes through (nil: the
	// real filesystem) — see inject.Config.FS and internal/chaos.
	FS chaos.FS
	// Guards names the always-on runtime guards to attach during every
	// injection ("all" or a subset of guard.Names for the unit); empty
	// runs unguarded. See inject.Config.Guards.
	Guards []string
}

// InjectionCampaign stress-tests the lifted suite against fault
// universes the pipeline did not target (see internal/inject): it
// samples the universes seeded from opts.Seed — excluding the STA
// violation census the suite was built for — and classifies every
// injection against a golden run. Cancel or expire ctx for a graceful
// partial report.
func (w *Workflow) InjectionCampaign(ctx context.Context, opts InjectOptions) (*inject.Report, error) {
	rep, _, err := w.InjectionCampaignStats(ctx, opts)
	return rep, err
}

// InjectionCampaignStats is InjectionCampaign plus the packed
// simulation accounting (wave occupancy, lane retirement, replay
// savings).
func (w *Workflow) InjectionCampaignStats(ctx context.Context, opts InjectOptions) (*inject.Report, *inject.PackedStats, error) {
	if w.Results == nil {
		if _, err := w.ErrorLifting(); err != nil {
			return nil, nil, err
		}
	}
	if opts.PerClass == 0 {
		opts.PerClass = 25
	}
	if opts.Mode == "" {
		opts.Mode = "standalone"
	}
	suite := w.Suite()

	var img *isa.Image
	switch opts.Mode {
	case "standalone":
		var err error
		img, err = suite.Image()
		if err != nil {
			return nil, nil, err
		}
	case "embedded":
		if opts.Workload == "" {
			opts.Workload = "crc32"
		}
		if opts.Budget == 0 {
			opts.Budget = 0.01
		}
		b, ok := embench.ByName(opts.Workload)
		if !ok {
			return nil, nil, fmt.Errorf("core: unknown workload %q", opts.Workload)
		}
		app, err := b.Build()
		if err != nil {
			return nil, nil, err
		}
		prof := profile.Collect(app, MemSize, MaxCycles)
		if prof == nil {
			return nil, nil, fmt.Errorf("core: %s did not exit cleanly during profiling", opts.Workload)
		}
		insts, err := suite.InstCount()
		if err != nil {
			return nil, nil, err
		}
		site, err := integrate.ChooseSite(prof, insts, opts.Budget)
		if err != nil {
			return nil, nil, err
		}
		emb, err := integrate.Embed(app, suite, site)
		if err != nil {
			return nil, nil, err
		}
		img = emb.Image
	default:
		return nil, nil, fmt.Errorf("core: unknown injection mode %q", opts.Mode)
	}

	specs := inject.SampleUniverse(w.Module, w.STA.Pairs, opts.PerClass, opts.Seed)
	return inject.RunWithStats(ctx, inject.Config{
		Module:          w.Module,
		Image:           img,
		Mode:            opts.Mode,
		Specs:           specs,
		Seed:            opts.Seed,
		MemSize:         MemSize,
		MaxCycles:       opts.MaxCycles,
		Parallelism:     w.Config.Parallelism,
		CheckpointPath:  opts.CheckpointPath,
		CheckpointEvery: opts.CheckpointEvery,
		OnCheckpoint:    opts.OnCheckpoint,
		FS:              opts.FS,
		Guards:          opts.Guards,
	})
}
