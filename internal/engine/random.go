package engine

// splitmix64 is the per-stream generator behind the random-stimulus
// profiler: tiny state, full 64-bit output (one fresh word = 64
// independent lane bits), and seedable from par.Seed-derived chunk seeds
// so chunks never share generator state.
type splitmix64 uint64

func (s *splitmix64) next() uint64 {
	*s += 0x9E3779B97F4A7C15
	z := uint64(*s)
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

// RunRandom advances the evaluator by cycles packed cycles of uniform
// random stimulus: every bit of every input port is driven with a fresh
// random word each cycle, so one packed cycle advances 64 independent
// random stimulus streams. With SP enabled the evaluator's profile
// grows by cycles x 64 lane-cycles of observation.
//
// The stimulus is a deterministic function of (program, cycles, seed)
// alone — lane l's stream is fixed by the seed, not by scheduling — which
// is what lets the chunked profiler in internal/core hand any range of
// chunks to any worker while staying byte-identical at every
// Parallelism setting.
func (e *Packed) RunRandom(cycles int, seed int64) {
	rng := splitmix64(seed)
	inputs := e.prog.Netlist.Inputs
	for c := 0; c < cycles; c++ {
		for _, port := range inputs {
			for _, n := range port.Bits {
				e.vals[n] = rng.next()
			}
		}
		e.Step()
	}
}
