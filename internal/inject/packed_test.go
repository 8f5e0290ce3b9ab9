package inject

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/alu"
	"repro/internal/chaos"
	"repro/internal/fault"
	"repro/internal/fpu"
	"repro/internal/lift"
	"repro/internal/module"
	"repro/internal/netlist"
	"repro/internal/sta"
)

// diffCampaign runs one campaign on the packed path and on the scalar
// oracle and requires byte-identical reports. Returns the number of
// (image, spec) combos covered.
func diffCampaign(t *testing.T, m *module.Module, suiteCases int, suiteSeed int64, perClass int, seed uint64) int {
	t.Helper()
	suite := lift.RandomSuite(m, suiteCases, suiteSeed)
	img, err := suite.Image()
	if err != nil {
		t.Fatal(err)
	}
	specs := SampleUniverse(m, nil, perClass, seed)
	cfg := Config{
		Module:    m,
		Image:     img,
		Specs:     specs,
		Seed:      seed,
		MemSize:   memSize,
		MaxCycles: 20_000_000,
	}
	scalar := scalarJSON(t, cfg)
	packed := runJSON(t, cfg)
	if !bytes.Equal(scalar, packed) {
		t.Errorf("%s suiteSeed=%d seed=%d: packed report differs from scalar:\n--- scalar\n%s\n--- packed\n%s",
			m.Name, suiteSeed, seed, scalar, packed)
	}
	return len(specs)
}

// TestPackedMatchesScalar is the headline differential: over random
// suite-image x fault-universe combos on both units, the packed
// concurrent fault simulation must classify every injection exactly
// like the scalar one-replay-per-injection oracle — same outcome
// class, same cycle count, same state digest, same divergence cycle —
// down to byte-identical report JSON.
func TestPackedMatchesScalar(t *testing.T) {
	combos := 0
	aluSeeds := 10
	if testing.Short() {
		aluSeeds = 3
	}
	m := alu.Build()
	for s := 0; s < aluSeeds; s++ {
		combos += diffCampaign(t, m, 5, int64(100+s), 2, uint64(s+1))
	}
	if !testing.Short() {
		mf := fpu.Build()
		for s := 0; s < 4; s++ {
			combos += diffCampaign(t, mf, 3, int64(200+s), 1, uint64(s+1))
		}
		if combos < 50 {
			t.Fatalf("only %d netlist x spec x seed combos covered, want >= 50", combos)
		}
	}
}

// fuzzSpec derives one valid injection spec from fuzz bytes; ok=false
// when the bytes do not encode a well-formed spec (e.g. a multi-fault
// with colliding endpoints).
func fuzzSpec(dffs []netlist.CellID, class, p0, p1, p2, p3 byte, w uint16) (Spec, bool) {
	site := func(sel, start, end byte) fault.Spec {
		f := fault.Spec{
			Start: dffs[int(start)%len(dffs)],
			End:   dffs[int(end)%len(dffs)],
			C:     fault.CValue(sel % 3),
			Edge:  fault.EdgeFilter(sel / 3 % 3),
		}
		if sel&64 != 0 {
			f.Type = sta.Hold
		}
		return f
	}
	switch class % 4 {
	case 0:
		return Spec{Class: StuckAt, Unit: "ALU", Faults: []fault.Spec{site(p0, p1, p2)}}, true
	case 1:
		return Spec{Class: Transient, Unit: "ALU", OpIndex: uint32(w), Bit: p1 % 32}, true
	case 2:
		if w == 0 {
			return Spec{}, false
		}
		return Spec{Class: Intermittent, Unit: "ALU", Bit: p1 % 32, Seed: w, Period: 2 + uint16(p2)%31}, true
	default:
		f1 := site(p0, p1, p2)
		f2 := site(p3, p2, p1)
		if f1.End == f2.End {
			return Spec{}, false
		}
		return Spec{Class: MultiFault, Unit: "ALU", Faults: []fault.Spec{f1, f2}}, true
	}
}

// FuzzPackedFaultVsScalar fuzzes the differential over the spec space:
// any spec the campaign accepts must classify identically on the packed
// path and the scalar oracle.
func FuzzPackedFaultVsScalar(f *testing.F) {
	m := alu.Build()
	suite := lift.RandomSuite(m, 4, 11)
	img, err := suite.Image()
	if err != nil {
		f.Fatal(err)
	}
	dffs := m.Netlist.DFFs()

	f.Add(byte(0), byte(0), byte(3), byte(7), byte(1), uint16(0))     // stuck, C0 any setup
	f.Add(byte(0), byte(65), byte(9), byte(9), byte(0), uint16(0))    // stuck, same-DFF hold
	f.Add(byte(0), byte(2), byte(20), byte(40), byte(0), uint16(0))   // stuck, CRandom
	f.Add(byte(1), byte(0), byte(12), byte(0), byte(0), uint16(3))    // transient
	f.Add(byte(2), byte(0), byte(5), byte(4), byte(0), uint16(44193)) // intermittent
	f.Add(byte(3), byte(4), byte(1), byte(8), byte(68), uint16(0))    // multi

	f.Fuzz(func(t *testing.T, class, p0, p1, p2, p3 byte, w uint16) {
		spec, ok := fuzzSpec(dffs, class, p0, p1, p2, p3, w)
		if !ok {
			return
		}
		cfg := Config{
			Module:    m,
			Image:     img,
			Specs:     []Spec{spec},
			MemSize:   memSize,
			MaxCycles: 5_000_000,
		}
		scalarRep, err := runScalar(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		packedRep, err := Run(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		sj, _ := scalarRep.JSON()
		pj, _ := packedRep.JSON()
		if !bytes.Equal(sj, pj) {
			t.Errorf("spec %s: packed differs from scalar:\n--- scalar\n%s\n--- packed\n%s",
				spec.String(), sj, pj)
		}
	})
}

// TestSampleUniverseGoldenVectors pins the universe draw: the first
// specs per class at seed 1 are part of the reproducibility contract
// (EXPERIMENTS.md regen commands reference these exact universes), so
// any change to the sampler's draw order is a breaking change that must
// show up here.
func TestSampleUniverseGoldenVectors(t *testing.T) {
	golden := map[string][]string{
		"ALU": {
			"stuck:ALU:h,63,1660,R,any",
			"stuck:ALU:h,1664,40,R,any",
			"stuck:ALU:s,68,37,1,any",
			"transient:ALU:34,17",
			"transient:ALU:24,26",
			"transient:ALU:11,21",
			"intermittent:ALU:5,42972,28",
			"intermittent:ALU:26,7029,27",
			"intermittent:ALU:31,62258,6",
			"multi:ALU:h,35,82,1,any;h,25,84,0,any",
			"multi:ALU:h,63,64,0,any;s,1669,35,1,any",
			"multi:ALU:h,85,35,1,any;h,26,56,0,any",
		},
		"FPU": {
			"stuck:FPU:h,173,9090,R,any",
			"stuck:FPU:h,141,9099,R,any",
			"stuck:FPU:s,9118,9090,1,any",
			"transient:FPU:34,17",
			"transient:FPU:24,26",
			"transient:FPU:11,21",
			"intermittent:FPU:5,42972,28",
			"intermittent:FPU:26,7029,27",
			"intermittent:FPU:31,62258,6",
			"multi:FPU:h,180,9097,1,any;h,172,9110,0,any",
			"multi:FPU:h,152,184,0,any;s,9110,9109,1,any",
			"multi:FPU:h,168,160,1,any;h,9114,180,0,any",
		},
	}
	for _, m := range []*module.Module{alu.Build(), fpu.Build()} {
		want := golden[m.Name]
		specs := SampleUniverse(m, nil, 3, 1)
		if len(specs) != len(want) {
			t.Fatalf("%s: sampled %d specs, want %d", m.Name, len(specs), len(want))
		}
		for i, s := range specs {
			if got := s.String(); got != want[i] {
				t.Errorf("%s spec %d = %q, want %q", m.Name, i, got, want[i])
			}
		}
	}
}

// TestCheckpointRejectsNewerVersion: a checkpoint written by a future
// schema must be refused, not silently misread.
func TestCheckpointRejectsNewerVersion(t *testing.T) {
	cfg, _ := testCampaign(t, 1)
	cfg.CheckpointPath = filepath.Join(t.TempDir(), "campaign.json")
	if _, err := Run(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(cfg.CheckpointPath)
	if err != nil {
		t.Fatal(err)
	}
	payload, sealed, err := chaos.Open(data)
	if err != nil || !sealed {
		t.Fatalf("checkpoint not sealed in the record envelope: sealed=%v err=%v", sealed, err)
	}
	var cp checkpoint
	if err := json.Unmarshal(payload, &cp); err != nil {
		t.Fatal(err)
	}
	if cp.Version != checkpointVersion {
		t.Fatalf("fresh checkpoint version = %d, want %d", cp.Version, checkpointVersion)
	}
	cp.Version = checkpointVersion + 1
	data, err = json.Marshal(&cp)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(cfg.CheckpointPath, chaos.Seal(data), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Run(context.Background(), cfg)
	if err == nil {
		t.Fatal("checkpoint from a newer schema accepted")
	}
	if !strings.Contains(err.Error(), "version") {
		t.Errorf("rejection does not name the version: %v", err)
	}
}

// TestPackedStatsAccounting sanity-checks RunWithStats: every
// netlist-class injection is accounted as a wave lane, every
// behavioural one as shortcut or replay, and occupancy/savings stay in
// range.
func TestPackedStatsAccounting(t *testing.T) {
	cfg, _ := testCampaign(t, 3)
	rep, stats, err := RunWithStats(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Partial {
		t.Fatal("partial")
	}
	if stats.GoldenOps == 0 {
		t.Error("golden op count not recorded")
	}
	for i := range stats.Classes {
		c := &stats.Classes[i]
		switch c.Class {
		case "stuck", "multi":
			if c.LanesUsed != 3 || c.Fallbacks != 0 {
				t.Errorf("%s: %d lanes, %d fallbacks, want 3 injections in lanes", c.Class, c.LanesUsed, c.Fallbacks)
			}
			if c.Waves < 1 || c.LaneSlots != c.Waves*63 {
				t.Errorf("%s: waves=%d slots=%d", c.Class, c.Waves, c.LaneSlots)
			}
			if c.Retired+c.MaskedInWave != c.LanesUsed {
				t.Errorf("%s: retired %d + masked %d != lanes %d", c.Class, c.Retired, c.MaskedInWave, c.LanesUsed)
			}
			if occ := c.Occupancy(); occ < 0 || occ > 1 {
				t.Errorf("%s: occupancy %v", c.Class, occ)
			}
			if sv := Savings(stats.GoldenOps, c); sv < 0 || sv > 1 {
				t.Errorf("%s: savings %v", c.Class, sv)
			}
		case "transient", "intermittent":
			if c.Shortcut+c.Replayed != 3 {
				t.Errorf("%s: shortcut %d + replayed %d, want 3", c.Class, c.Shortcut, c.Replayed)
			}
		}
	}
}

// TestVoidedWaveIsError: when the gate-level golden lane disagrees with
// the behavioural model — here a Golden wrapped to flip one result bit
// at unit op k — the wave proves nothing, and the campaign fails with an
// error naming the unit, the op and both words: no report, and no
// checkpoint claiming any of the wave's lanes done.
func TestVoidedWaveIsError(t *testing.T) {
	const k = 5
	cfg, m := testCampaign(t, 3)
	var stuck []Spec
	for _, s := range cfg.Specs {
		if s.Class == StuckAt {
			stuck = append(stuck, s)
		}
	}
	cfg.Specs = stuck // one wave, so it calls Golden once per unit op
	cfg.Parallelism = 1
	cfg.CheckpointPath = filepath.Join(t.TempDir(), "campaign.json")

	// The golden run answers from Module.Golden too, once per unit op and
	// before the wave does: the lie starts counting where it ends, so the
	// oracle stays honest and only the wave's cross-check sees the flip.
	honest := cfg
	g, err := prepare(&honest)
	if err != nil {
		t.Fatal(err)
	}
	lying := *m
	calls := uint64(0)
	lying.Golden = func(op, a, b uint32) (uint32, uint32) {
		r, f := m.Golden(op, a, b)
		if calls == g.ops+k {
			r ^= 1 << 7
		}
		calls++
		return r, f
	}
	cfg.Module = &lying

	rep, err := Run(context.Background(), cfg)
	if err == nil {
		t.Fatalf("voided wave produced a report: %+v", rep)
	}
	if rep != nil {
		t.Errorf("error %v came with a report", err)
	}
	for _, want := range []string{"ALU stuck wave", "voided at unit op 5 ", "golden model result=", "gate-level lane 0 result="} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error does not contain %q: %v", want, err)
		}
	}
	if _, serr := os.Stat(cfg.CheckpointPath); !os.IsNotExist(serr) {
		t.Errorf("a checkpoint was written for a voided wave (stat: %v)", serr)
	}
}
