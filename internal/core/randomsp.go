package core

import (
	"context"
	"fmt"

	"repro/internal/engine"
	"repro/internal/netlist"
	"repro/internal/par"
)

// randomSPChunks is the fixed partition width of the packed
// random-stimulus SP profile. Like profileChunks it is a constant — not
// Config.Parallelism — because chunk boundaries define where the
// evaluator's state resets and where the per-chunk stimulus seeds
// rebase, and both must be independent of the worker count for the
// profile to be byte-identical at every Parallelism setting.
const randomSPChunks = 16

// RandomSP collects a synthetic signal-probability profile of a netlist
// under uniform random stimulus through the engine's 64-lane packed
// evaluator: each packed cycle advances 64 independent random stimulus
// streams, with residency accumulated exactly via popcount. `cycles`
// counts packed cycles, so the profile covers cycles x 64 lane-cycles of
// observation.
//
// This is the profile-free screening mode: when no representative
// workload exists (or a pessimism-free baseline is wanted), random
// stimulus approximates the SP ~ 0.5 equilibrium that an unknown
// workload mix drives most data nets toward, and the aging STA can run
// on it directly. The workload-driven profile in ProfileWorkloads
// remains the paper-faithful path and is byte-identical to the scalar
// replay; RandomSP is an additional, packed-native workload.
//
// Work is partitioned into fixed chunks; chunk ci derives its stimulus
// seed as par.Seed(seed, ci) and starts from reset, so the merged
// profile is a function of (netlist, cycles, seed) alone — never of
// parallelism or scheduling. Each worker takes a contiguous range of
// chunks through one evaluator, resetting it at every chunk boundary
// while its SP counters accumulate across them: an evaluator is two
// words per net, which at a million nets costs more to allocate than a
// chunk costs to simulate.
func RandomSP(nl *netlist.Netlist, cycles int, seed int64, parallelism int) (*engine.Profile, error) {
	if cycles <= 0 {
		return nil, fmt.Errorf("core: RandomSP needs a positive cycle count, got %d", cycles)
	}
	prog := engine.Cached(nl)
	chunks := min(randomSPChunks, cycles)
	workers := min(par.N(parallelism), chunks)
	parts, err := par.Map(context.Background(), workers, parallelism,
		func(_ context.Context, wi int) (*engine.Profile, error) {
			e := engine.NewPacked(prog)
			e.EnableSP()
			for ci := wi * chunks / workers; ci < (wi+1)*chunks/workers; ci++ {
				e.Reset()
				lo := ci * cycles / chunks
				hi := (ci + 1) * cycles / chunks
				e.RunRandom(hi-lo, par.Seed(seed, ci))
			}
			return e.Profile(), nil
		})
	if err != nil {
		return nil, err
	}
	return engine.MergeProfiles(parts...), nil
}

// RandomSPProfile runs RandomSP over the workflow's module and installs
// the result as the workflow's SP profile, so a subsequent AgingAnalysis
// consumes synthetic random-stimulus SPs instead of workload-driven
// ones.
func (w *Workflow) RandomSPProfile(cycles int, seed int64) (*engine.Profile, error) {
	p, err := RandomSP(w.Module.Netlist, cycles, seed, w.Config.Parallelism)
	if err != nil {
		return nil, err
	}
	w.SPProfile = p
	return p, nil
}
