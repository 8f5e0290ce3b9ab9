package sta

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/aging"
	"repro/internal/cell"
	"repro/internal/netlist"
)

// FuzzBatchedVsScalar lets the fuzzer pick a random timed netlist (via
// seed) and a corner grid + caps (via raw bytes), then holds the batched
// engine to bit-identical Results against the scalar differential
// baseline. Same contract as TestBatchedMatchesScalar, with the fuzzer
// steering the corpus.
func FuzzBatchedVsScalar(f *testing.F) {
	f.Add(int64(1), byte(1), byte(0), byte(0), uint16(300))
	f.Add(int64(7), byte(4), byte(7), byte(2), uint16(150))
	f.Add(int64(42), byte(2), byte(255), byte(1), uint16(900))
	f.Add(int64(99), byte(5), byte(31), byte(40), uint16(60))
	f.Fuzz(func(t *testing.T, seed int64, nCorners, cornerBits, caps byte, periodRaw uint16) {
		nl := randomTimedNetlist(seed % 4096)
		lib := cell.Lib28()
		rng := rand.New(rand.NewSource(seed ^ int64(cornerBits)))
		cfg := BatchConfig{
			PeriodPs: float64(periodRaw%1200) + 40,
			Base:     lib,
			Model:    aging.Default(),
			Profile:  randomNetSP(nl, seed+2),
		}
		if caps > 0 {
			cfg.MaxPaths = int(caps) % 16
			cfg.PerEndpoint = 1 + int(caps)%8
		}
		if cornerBits%2 == 1 {
			cfg.Parallelism = 8
		} else {
			cfg.Parallelism = 1
		}
		corners := make([]Corner, 1+int(nCorners)%6)
		for i := range corners {
			if cornerBits&(1<<(uint(i)%8)) != 0 {
				corners[i].Years = rng.Float64() * 15
			}
		}
		got := AnalyzeCorners(nl, cfg, corners)
		want := scalarBaseline(nl, cfg, corners)
		for k := range corners {
			if !reflect.DeepEqual(got[k], want[k]) {
				t.Fatalf("corner %d (%+v) diverges:\n  batched: %+v\n  scalar:  %+v",
					k, corners[k], got[k], want[k])
			}
		}
	})
}

// FuzzIncrementalSTA holds the incremental re-timing engine to
// byte-identical Results against from-scratch AnalyzeCorners across
// fuzzer-chosen netlists, corner sets and SP-delta sequences — the cone
// worklist and the clock-network invalidation under one differential
// oracle.
func FuzzIncrementalSTA(f *testing.F) {
	f.Add(int64(1), byte(2), byte(3), byte(0))
	f.Add(int64(7), byte(1), byte(9), byte(1))
	f.Add(int64(42), byte(5), byte(1), byte(2))
	f.Add(int64(1234), byte(3), byte(30), byte(3))
	f.Fuzz(func(t *testing.T, seed int64, rounds, deltas, mode byte) {
		nl, cfg, corners := randomCase(seed % 4096)
		rng := rand.New(rand.NewSource(seed ^ int64(mode)))
		inc := NewIncremental(nl, cfg, corners)
		defer inc.Close()
		if got, want := inc.Results(), AnalyzeCorners(nl, cfg, corners); !reflect.DeepEqual(got, want) {
			t.Fatal("initial incremental Results diverge from AnalyzeCorners")
		}
		for round := 0; round < 1+int(rounds)%6; round++ {
			n := 1 + int(deltas)%8
			changed := make([]netlist.NetID, 0, n)
			for i := 0; i < n; i++ {
				net := netlist.NetID(rng.Intn(nl.NumNets))
				cfg.Profile.SP[net] = rng.Float64()
				changed = append(changed, net)
			}
			got := inc.UpdateSP(changed)
			if want := AnalyzeCorners(nl, cfg, corners); !reflect.DeepEqual(got, want) {
				t.Fatalf("round %d: incremental diverges after %d SP deltas", round, n)
			}
		}
	})
}
