package engine

// Profile is a per-net signal-probability profile plus the observation
// length, consumed by the aging analysis. The packed evaluator produces
// it, one lane-cycle per observed lane per Step. The scalar reference
// (internal/sim, one cycle per Step) produces the same type, so the
// engine's tests compare the two profiles with ==.
type Profile struct {
	Cycles uint64
	SP     []float64 // indexed by NetID
	// Ones holds the raw per-net residency counters SP is derived from
	// (multiples of 0.5, so sums over partial profiles are exact in
	// float64). They make profiles mergeable without re-rounding: the
	// parallel workload-profiling path collects one partial profile per
	// task and MergeProfiles reconstructs the exact combined SP.
	Ones []float64
}

// MergeProfiles combines partial profiles collected on the same netlist
// (same net count) into one, as if a single simulator had observed all
// cycles. Profiles with zero cycles contribute nothing. The raw Ones
// counters are summed in argument order and are exact multiples of 0.5,
// so the result is independent of how the observation was partitioned —
// the invariant the parallel profiling path relies on. A packed partial
// is simply its observed lanes' observations summed up front.
func MergeProfiles(ps ...*Profile) *Profile {
	nets := 0
	for _, p := range ps {
		if p != nil && len(p.Ones) > nets {
			nets = len(p.Ones)
		}
	}
	out := &Profile{SP: make([]float64, nets), Ones: make([]float64, nets)}
	for _, p := range ps {
		if p == nil || p.Cycles == 0 {
			continue
		}
		out.Cycles += p.Cycles
		for n, v := range p.Ones {
			out.Ones[n] += v
		}
	}
	if out.Cycles == 0 {
		return out
	}
	for n := range out.SP {
		out.SP[n] = out.Ones[n] / float64(out.Cycles)
	}
	return out
}
