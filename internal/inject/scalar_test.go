package inject

import (
	"context"
	"fmt"

	"repro/internal/cpu"
	"repro/internal/fault"
	"repro/internal/module"
	"repro/internal/par"
)

// This file is the campaign engine the packed waves replaced, kept as
// their oracle: every injection is one independent full replay, netlist
// classes on a gate-level failing netlist (fault.FailingNetlist) behind
// the unit seam. TestPackedMatchesScalar, FuzzPackedFaultVsScalar and
// TestGuardedMatchesUnguarded hold inject.Run to its report byte for
// byte. It shares prepare, runAttached and buildReport with the
// production path — what differs is only how a fault reaches the unit.

// runScalar classifies cfg's whole universe by scalar replay: no waves,
// no de-duplication, no checkpoints.
func runScalar(ctx context.Context, cfg Config) (*Report, error) {
	g, err := prepare(&cfg)
	if err != nil {
		return nil, err
	}
	outs, err := par.Map(ctx, len(cfg.Specs), cfg.Parallelism, func(ctx context.Context, idx int) (taskOut, error) {
		s := cfg.Specs[idx]
		c := cpu.Recycled(cfg.MemSize)
		defer c.Release()
		if err := attachScalar(cfg.Module, c, s); err != nil {
			return taskOut{}, fmt.Errorf("injection %d (%s): %w", idx, s.String(), err)
		}
		r, ok, err := runAttached(ctx, &cfg, idx, g, c)
		return taskOut{r, ok}, err
	})
	if err != nil {
		return nil, err
	}
	results := make([]Result, len(outs))
	done := make([]bool, len(outs))
	for i, o := range outs {
		results[i], done[i] = o.r, o.ok
	}
	return buildReport(&cfg, results, done), nil
}

// attachScalar is Attach for every class: a netlist-class spec replaces
// the unit with a gate-level simulation of its failing netlist.
func attachScalar(m *module.Module, c *cpu.CPU, s Spec) error {
	if s.Class != StuckAt && s.Class != MultiFault {
		return Attach(m, c, s)
	}
	if s.Unit != m.Name {
		return fmt.Errorf("inject: spec targets %s but module is %s", s.Unit, m.Name)
	}
	for _, f := range s.Faults {
		if err := checkSite(m, f); err != nil {
			return err
		}
	}
	nl := m.Netlist
	if s.Class == StuckAt {
		nl = fault.FailingNetlist(m.Netlist, s.Faults[0])
	} else {
		var err error
		nl, err = fault.FailingNetlistMulti(m.Netlist, s.Faults...)
		if err != nil {
			return err
		}
	}
	*c.Unit(m.Name) = module.NewDriverOn(m, nl)
	return nil
}
