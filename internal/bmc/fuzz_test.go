package bmc

import (
	"testing"

	"repro/internal/fault"
)

// FuzzIncrementalCover lets the fuzzer pick a random sequential netlist
// (via seed) and a random fault spec over its flip-flops (via raw
// bytes), then cross-checks the incremental engine against the
// from-scratch single-shot path: identical verdicts, both traces must
// replay, and the incremental depth can never exceed the single-shot
// bound. Same differential contract as TestIncrementalMatchesScratch,
// with the fuzzer steering the corpus.
func FuzzIncrementalCover(f *testing.F) {
	f.Add(int64(1), byte(0), byte(1), byte(0), byte(0))
	f.Add(int64(7), byte(3), byte(3), byte(1), byte(0))
	f.Add(int64(42), byte(9), byte(4), byte(2), byte(1))
	f.Add(int64(99), byte(0), byte(0), byte(3), byte(2))
	f.Fuzz(func(t *testing.T, seed int64, b0, b1, b2, b3 byte) {
		nl := randomSequentialNetlist(seed % 2048)
		spec := specFromBytes(nl, b0, b1, b2, b3)
		inst := fault.ShadowReplica(nl, spec)
		withBounds(t, 5, 500000)
		cfg := Config{}

		inc := Cover(inst.Netlist, inst.Covers, cfg)
		scr := CoverSingleShot(inst.Netlist, inst.Covers, cfg)
		if inc.Verdict != scr.Verdict {
			t.Fatalf("%s: incremental=%v scratch=%v", spec.Name(nl), inc.Verdict, scr.Verdict)
		}
		if inc.Verdict != Covered {
			return
		}
		if inc.Depth > scr.Depth {
			t.Fatalf("%s: incremental depth %d exceeds scratch depth %d",
				spec.Name(nl), inc.Depth, scr.Depth)
		}
		if inc.Depth != inc.Trace.CoverCycle+1 || inc.Trace.Cycles != inc.Depth {
			t.Fatalf("%s: depth %d inconsistent with trace (cover cycle %d, cycles %d)",
				spec.Name(nl), inc.Depth, inc.Trace.CoverCycle, inc.Trace.Cycles)
		}
		if !Replay(inst.Netlist, inc.Trace) {
			t.Fatalf("%s: incremental trace does not replay", spec.Name(nl))
		}
		if !Replay(inst.Netlist, scr.Trace) {
			t.Fatalf("%s: scratch trace does not replay", spec.Name(nl))
		}
	})
}
