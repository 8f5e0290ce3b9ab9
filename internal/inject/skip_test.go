package inject

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"repro/internal/alu"
	"repro/internal/engine"
	"repro/internal/fpu"
	"repro/internal/lift"
	"repro/internal/module"
	"repro/internal/netlist"
)

// TestWaveSkipMatchesFullWave: a wave that answers quiet unit ops from
// the golden trace retires the same lanes as a wave that simulates
// every op, each at the same op and wait-loop check, and holds each on
// every net where the full wave holds it, so each shows the same
// out_valid and response at its check; so does the wave that records. Over an
// ALU and an FPU campaign of two waves per netlist class, at least one
// op is skipped and one simulated op restores. The campaign's report is
// byte-identical with skipping off (fullWaves), and its stats count no
// skipped op then.
func TestWaveSkipMatchesFullWave(t *testing.T) {
	for _, m := range []*module.Module{alu.Build(), fpu.Build()} {
		t.Run(m.Name, func(t *testing.T) {
			img, err := lift.RandomSuite(m, 40, 5).Image()
			if err != nil {
				t.Fatal(err)
			}
			cfg := Config{Module: m, Image: img, Seed: 3, MemSize: memSize, MaxCycles: 20_000_000, Parallelism: 1}
			var all []int
			for _, s := range SampleUniverse(m, nil, engine.Lanes+6, 3) {
				if s.Class == StuckAt || s.Class == MultiFault {
					all = append(all, len(cfg.Specs))
					cfg.Specs = append(cfg.Specs, s)
				}
			}
			g, err := prepare(&cfg)
			if err != nil {
				t.Fatal(err)
			}
			wave := func(idxs []int, from *engine.Recording, record bool) *packedBackend {
				pb, err := newWave(&cfg, idxs, from, record)
				if err != nil {
					t.Fatal(err)
				}
				if ok, err := pb.run(context.Background(), g); !ok {
					t.Fatal(err)
				}
				return pb
			}
			var from *engine.Recording
			skipped, restores, waves := 0, 0, 0
			for _, u := range partitionUnits(&cfg, all) {
				full := wave(u.idxs, nil, false)
				pb := wave(u.idxs, from, from == nil)
				if from == nil {
					from = pb.rec
				}
				if !reflect.DeepEqual(pb.rets, full.rets) || pb.live != full.live {
					t.Errorf("wave of injections %d..%d: %d retirements (live %#x), the full wave %d (live %#x)",
						u.idxs[0], u.idxs[len(u.idxs)-1], len(pb.rets), pb.live, len(full.rets), full.live)
					for i := range min(len(pb.rets), len(full.rets)) {
						if a, b := pb.rets[i], full.rets[i]; !reflect.DeepEqual(a, b) {
							t.Errorf("  first difference: lane %d op %d wait %d, full lane %d op %d wait %d",
								a.lane, a.op, a.wait, b.lane, b.op, b.wait)
							break
						}
					}
				}
				retired := (uint64(1)<<uint(len(u.idxs)+1) - 2) &^ full.live
				pb.pe.Settle()
				full.pe.Settle()
				for n := 0; n < m.Netlist.NumNets; n++ {
					id := netlist.NetID(n)
					if d := (pb.pe.Word(id) ^ full.pe.Word(id)) & retired; d != 0 {
						t.Errorf("wave of injections %d..%d: held lanes %#x of net %s differ from the full wave's",
							u.idxs[0], u.idxs[len(u.idxs)-1], d, m.Netlist.NetName(id))
						break
					}
				}
				skipped += pb.skipped
				restores += pb.restores
				waves++
			}
			if waves < 4 || skipped == 0 || restores == 0 {
				t.Errorf("%d waves skipped %d ops and restored %d times; want 4 waves, a skip and a restore", waves, skipped, restores)
			}

			report := func() ([]byte, int) {
				rep, stats, err := RunWithStats(context.Background(), cfg)
				if err != nil {
					t.Fatal(err)
				}
				data, err := rep.JSON()
				if err != nil {
					t.Fatal(err)
				}
				n := 0
				for _, c := range stats.Classes {
					n += c.SkippedOps
				}
				return data, n
			}
			skipping, n := report()
			fullWaves(t)
			full, nFull := report()
			if !bytes.Equal(skipping, full) {
				t.Errorf("the report with skipping differs from the full waves':\n--- skipping\n%s\n--- full\n%s", skipping, full)
			}
			if n != skipped || nFull != 0 {
				t.Errorf("stats count %d skipped ops, and %d with full waves; want %d and 0", n, nFull, skipped)
			}
		})
	}
}

// TestRecorderTapeEndsWithItsWave: the gang of the wave that records the
// golden run continues on the recorder's evaluator with lane 0 held, so
// it adds nothing to the recording: the recording runPackedWave hands
// the campaign's later waves equals, edge for edge and mark for mark,
// the recording of the same wave run without its gang.
func TestRecorderTapeEndsWithItsWave(t *testing.T) {
	m := alu.Build()
	img, err := lift.RandomSuite(m, 20, 5).Image()
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Module: m, Image: img, Seed: 3, MemSize: memSize, MaxCycles: 20_000_000, Parallelism: 1}
	var idxs []int
	for _, s := range SampleUniverse(m, nil, engine.Lanes-1, 3) {
		if s.Class == StuckAt {
			idxs = append(idxs, len(cfg.Specs))
			cfg.Specs = append(cfg.Specs, s)
		}
	}
	g, err := prepare(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	out, err := runPackedWave(context.Background(), &cfg, g, idxs, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	if out.acct.GangSettles == 0 {
		t.Fatal("the wave's gang made no step")
	}
	pb, err := newWave(&cfg, idxs, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := pb.run(context.Background(), g); !ok {
		t.Fatal(err)
	}
	if out.rec == nil || !reflect.DeepEqual(out.rec, pb.rec) {
		t.Error("the recording after the wave's gang differs from the recording at the end of its replay")
	}
}
