package inject

import (
	"bytes"
	"context"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/alu"
	"repro/internal/chaos"
	"repro/internal/cpu"
	"repro/internal/embench"
	"repro/internal/fpu"
	"repro/internal/guard"
	"repro/internal/integrate"
	"repro/internal/lift"
	"repro/internal/module"
	"repro/internal/profile"
)

func runReport(t *testing.T, cfg Config) *Report {
	t.Helper()
	rep, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// diffGuardedCampaign runs one campaign unguarded and guarded (packed
// and scalar) and checks the guard contract:
//
//   - guarded packed == guarded scalar, byte-identical (the packed
//     differential extends to guarded campaigns);
//   - guarded vs unguarded reports differ ONLY by SDCEscape->Detected
//     reclassifications where a guard fired, plus the added guard
//     fields — every other field of every result is bit-equal, because
//     guards are observe-only.
//
// Returns (combos covered, escapes reclassified).
func diffGuardedCampaign(t *testing.T, m *module.Module, suiteCases int, suiteSeed int64, perClass int, seed uint64) (int, int) {
	t.Helper()
	suite := lift.RandomSuite(m, suiteCases, suiteSeed)
	img, err := suite.Image()
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Module:    m,
		Image:     img,
		Specs:     SampleUniverse(m, nil, perClass, seed),
		Seed:      seed,
		MemSize:   memSize,
		MaxCycles: 20_000_000,
	}
	return diffGuardedRun(t, m, cfg)
}

// diffGuardedRun is diffGuardedCampaign on a prepared config (Guards
// ignored): it owns the three runs and the comparisons.
func diffGuardedRun(t *testing.T, m *module.Module, cfg Config) (int, int) {
	t.Helper()
	cfg.Guards = nil
	unguarded := runReport(t, cfg)

	cfg.Guards = []string{"all"}
	guarded := runReport(t, cfg)
	gp, err := guarded.JSON()
	if err != nil {
		t.Fatal(err)
	}
	gs := scalarJSON(t, cfg)
	if !bytes.Equal(gp, gs) {
		t.Errorf("%s mode=%s seed=%d: guarded packed report differs from guarded scalar:\n--- scalar\n%s\n--- packed\n%s",
			m.Name, cfg.Mode, cfg.Seed, gs, gp)
	}

	return len(cfg.Specs), compareGuardedReports(t, m, unguarded, guarded)
}

// compareGuardedReports enforces the field-by-field delta contract
// between an unguarded report and its guarded twin and returns the
// number of SDCEscape->Detected moves.
func compareGuardedReports(t *testing.T, m *module.Module, ug, gd *Report) int {
	t.Helper()
	names := guard.Names(m.Name)
	if strings.Join(gd.Guards, ",") != strings.Join(names, ",") {
		t.Errorf("guarded report lists guards %v, want %v", gd.Guards, names)
	}
	if len(ug.Guards) != 0 {
		t.Errorf("unguarded report lists guards %v", ug.Guards)
	}
	if ug.Unit != gd.Unit || ug.Seed != gd.Seed || ug.MaxCycles != gd.MaxCycles ||
		ug.Total != gd.Total || ug.Completed != gd.Completed || len(ug.Results) != len(gd.Results) {
		t.Fatalf("report headers diverge: unguarded %d/%d results %d, guarded %d/%d results %d",
			ug.Completed, ug.Total, len(ug.Results), gd.Completed, gd.Total, len(gd.Results))
	}

	moved := map[string]int{}
	for i := range ug.Results {
		u, g := ug.Results[i], gd.Results[i]
		if u.Guard != "" || u.GuardOp != 0 {
			t.Fatalf("unguarded result %d carries guard fields: %+v", i, u)
		}
		// Everything except the outcome and the guard fields must be
		// bit-equal — guards may not perturb the replay.
		masked := g
		masked.Outcome, masked.Guard, masked.GuardOp = u.Outcome, "", 0
		if masked != u {
			t.Errorf("result %d differs beyond outcome/guard fields:\n unguarded %+v\n guarded   %+v", i, u, g)
			continue
		}
		if g.Guard != "" && g.GuardOp == 0 {
			t.Errorf("result %d: guard %q fired with zero op index", i, g.Guard)
		}
		switch {
		case g.Outcome == u.Outcome:
			// Fine; a guard may still have fired (e.g. on a masked run).
		case u.Outcome == SDCEscape.String() && g.Outcome == Detected.String() && g.Guard != "":
			moved[g.Class]++
		default:
			t.Errorf("result %d: illegal outcome move %q -> %q (guard %q)", i, u.Outcome, g.Outcome, g.Guard)
		}
		if g.Outcome == Detected.String() && g.Halt == "exit" && g.Guard == "" {
			t.Errorf("result %d: detected on a completed run without a guard fire", i)
		}
	}

	total := 0
	for i := range ug.Classes {
		uc, gc := ug.Classes[i], gd.Classes[i]
		mv := moved[uc.Class]
		total += mv
		if gc.Total != uc.Total || gc.Masked != uc.Masked || gc.StallCrash != uc.StallCrash {
			t.Errorf("class %s: guarded stats perturb untouched outcomes: %+v vs %+v", uc.Class, gc, uc)
		}
		if gc.Detected != uc.Detected+mv || gc.SDCEscape != uc.SDCEscape-mv {
			t.Errorf("class %s: detected %d->%d escape %d->%d, but %d reclassifications counted",
				uc.Class, uc.Detected, gc.Detected, uc.SDCEscape, gc.SDCEscape, mv)
		}
		if gc.GuardDetected != mv {
			t.Errorf("class %s: GuardDetected = %d, want %d", uc.Class, gc.GuardDetected, mv)
		}
		if gc.GuardFired < gc.GuardDetected {
			t.Errorf("class %s: GuardFired %d < GuardDetected %d", uc.Class, gc.GuardFired, gc.GuardDetected)
		}
		if uc.GuardDetected != 0 || uc.GuardFired != 0 {
			t.Errorf("class %s: unguarded stats carry guard counters: %+v", uc.Class, uc)
		}
	}
	return total
}

// TestGuardedMatchesUnguarded is the guard differential over the same
// netlist x spec x seed matrix as TestPackedMatchesScalar: with guards
// off the campaign is untouched; with guards on, the only permitted
// report delta is SDCEscape->Detected where the guard log fired.
func TestGuardedMatchesUnguarded(t *testing.T) {
	combos, moves := 0, 0
	aluSeeds := 10
	if testing.Short() {
		aluSeeds = 3
	}
	m := alu.Build()
	for s := 0; s < aluSeeds; s++ {
		c, mv := diffGuardedCampaign(t, m, 5, int64(100+s), 2, uint64(s+1))
		combos, moves = combos+c, moves+mv
	}
	if !testing.Short() {
		mf := fpu.Build()
		for s := 0; s < 4; s++ {
			c, mv := diffGuardedCampaign(t, mf, 3, int64(200+s), 1, uint64(s+1))
			combos, moves = combos+c, moves+mv
		}
		// The standalone suite self-checks, so escapes are rare there;
		// the embedded minver configuration is where the census found
		// the 100% escape hole, so it is where reclassifications must
		// actually happen.
		c, mv := diffGuardedRun(t, mf, minverCampaign(t, 1))
		combos, moves = combos+c, moves+mv
		if combos < 50 {
			t.Fatalf("only %d netlist x spec x seed combos covered, want >= 50", combos)
		}
		if moves == 0 {
			t.Error("no escape was ever reclassified across the full matrix — guards never detected anything")
		}
	}
	t.Logf("%d combos, %d escapes reclassified to detected", combos, moves)
}

// minverCampaign builds the reproducibility-contract campaign for the
// guard golden vectors: the FPU suite embedded into the minver workload
// (the configuration whose 100% transient/intermittent escape rate
// motivated the guards), universe seed 1.
func minverCampaign(t *testing.T, perClass int) Config {
	t.Helper()
	m := fpu.Build()
	suite := lift.RandomSuite(m, 3, 1)
	b, ok := embench.ByName("minver")
	if !ok {
		t.Fatal("minver workload missing")
	}
	app, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	prof := profile.Collect(app, memSize, 50_000_000)
	if prof == nil {
		t.Fatal("minver did not exit cleanly during profiling")
	}
	insts, err := suite.InstCount()
	if err != nil {
		t.Fatal(err)
	}
	site, err := integrate.ChooseSite(prof, insts, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	emb, err := integrate.Embed(app, suite, site)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Module:    m,
		Image:     emb.Image,
		Mode:      "embedded",
		Specs:     SampleUniverse(m, nil, perClass, 1),
		Seed:      1,
		MemSize:   memSize,
		MaxCycles: 50_000_000,
		Guards:    []string{"all"},
	}
}

// TestGuardVerdictGoldenVectorsMinver pins the guard verdict stream on
// the minver embedded FPU campaign at seed 1 — the exact configuration
// EXPERIMENTS.md's escape tables regenerate. Each pin is
// "class outcome guard@op"; any change to guard evaluation order, the
// first-fire tie-break, or the campaign replay is a breaking change to
// the reproducibility contract and must show up here.
func TestGuardVerdictGoldenVectorsMinver(t *testing.T) {
	if testing.Short() {
		t.Skip("embedded campaign in -short mode")
	}
	cfg := minverCampaign(t, 2)
	rep := runReport(t, cfg)
	if rep.Partial {
		t.Fatalf("partial: %d/%d", rep.Completed, rep.Total)
	}
	want := []string{
		"stuck masked",
		"stuck masked",
		"transient detected addswap@9",
		"transient detected mulswap@7",
		"intermittent detected mulswap@20",
		"intermittent detected exprange@4",
		"multi masked",
		"multi detected mulswap@1",
	}
	var got []string
	for _, r := range rep.Results {
		pin := r.Class + " " + r.Outcome
		if r.Guard != "" {
			pin += " " + r.Guard + "@" + uitoa(r.GuardOp)
		}
		got = append(got, pin)
	}
	if len(got) != len(want) {
		t.Fatalf("verdict stream:\n%s", strings.Join(got, "\n"))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("verdict %d = %q, want %q", i, got[i], want[i])
		}
	}
}

func uitoa(v uint64) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// TestGuardedCheckpointRoundTrip: a guarded campaign's checkpoint
// carries its guard list, and an interrupted guarded
// campaign resumes to the byte-identical report of an uninterrupted
// guarded run.
func TestGuardedCheckpointRoundTrip(t *testing.T) {
	cfg, _ := testCampaign(t, 2)
	cfg.Guards = []string{"all"}
	want := runJSON(t, cfg) // uninterrupted guarded reference

	cfg.CheckpointPath = filepath.Join(t.TempDir(), "campaign.json")
	cfg.CheckpointEvery = 3
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg.OnCheckpoint = func(done int) { cancel() }
	partial, err := Run(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !partial.Partial || partial.Completed == 0 || partial.Completed >= partial.Total {
		t.Fatalf("interrupted guarded campaign: completed %d/%d", partial.Completed, partial.Total)
	}

	cp, err := loadCheckpoint(chaos.OS{}, cfg.CheckpointPath)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Version != checkpointVersion {
		t.Errorf("guarded checkpoint version = %d, want %d", cp.Version, checkpointVersion)
	}
	if want := guard.Names("ALU"); strings.Join(cp.Guards, ",") != strings.Join(want, ",") {
		t.Errorf("guarded checkpoint lists guards %v, want %v", cp.Guards, want)
	}

	cfg.OnCheckpoint = nil
	rep, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("resumed guarded report differs from uninterrupted run:\n%s\n---\n%s", got, want)
	}
}

// TestGuardedCheckpointRejectedByMismatch: a guarded checkpoint must not
// be resumed by an unguarded campaign, nor by one running a different
// guard list, nor an unguarded checkpoint by a guarded campaign — its
// results have no verdicts to reclassify on.
func TestGuardedCheckpointRejectedByMismatch(t *testing.T) {
	cfg, _ := testCampaign(t, 1)
	cfg.Guards = []string{"all"}
	cfg.CheckpointPath = filepath.Join(t.TempDir(), "campaign.json")
	if _, err := Run(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}

	ucfg := cfg
	ucfg.Guards = nil
	_, err := Run(context.Background(), ucfg)
	if err == nil {
		t.Fatal("unguarded campaign resumed a guarded checkpoint")
	}
	if !strings.Contains(err.Error(), "guards") {
		t.Errorf("rejection does not mention guards: %v", err)
	}

	scfg := cfg
	scfg.Guards = []string{"res3"}
	_, err = Run(context.Background(), scfg)
	if err == nil {
		t.Fatal("campaign with a different guard list resumed the checkpoint")
	}
	if !strings.Contains(err.Error(), "res3") {
		t.Errorf("rejection does not name the requested guards: %v", err)
	}

	ucfg.CheckpointPath = filepath.Join(t.TempDir(), "campaign.json")
	if _, err := Run(context.Background(), ucfg); err != nil {
		t.Fatal(err)
	}
	cfg.CheckpointPath = ucfg.CheckpointPath
	_, err = Run(context.Background(), cfg)
	if err == nil {
		t.Fatal("guarded campaign resumed an unguarded checkpoint")
	}
	if !strings.Contains(err.Error(), "without guards") {
		t.Errorf("rejection does not name the missing guards: %v", err)
	}
}

// responses is the outermost observer of the compose test: the stream of
// (result, flags, ok) the CPU actually consumed.
type responses struct {
	inner module.Unit
	seen  []response
}

type response struct {
	r, f uint32
	ok   bool
}

func (s *responses) Exec(op, a, b uint32) (uint32, uint32, bool) {
	r, f, ok := s.inner.Exec(op, a, b)
	s.seen = append(s.seen, response{r, f, ok})
	return r, f, ok
}

// TestGuardedRecordingTrackingCompose checks "observe-only" once, for
// the one wrapper shape: the guard outside the divergence tracker
// outside the operation recorder outside a gate-level Driver hands the
// CPU the same response stream, and leaves it in the same state after the
// same cycles, as the bare Driver — on the healthy ALU and FPU netlists,
// where the tracker must see no divergence and no guard may fire.
func TestGuardedRecordingTrackingCompose(t *testing.T) {
	for _, m := range []*module.Module{alu.Build(), fpu.Build()} {
		img, err := lift.RandomSuite(m, 6, 7).Image()
		if err != nil {
			t.Fatal(err)
		}
		run := func(wrap func(c *cpu.CPU)) (*responses, *cpu.CPU) {
			c := cpu.New(memSize)
			u := c.Unit(m.Name)
			*u = module.NewDriver(m)
			wrap(c)
			out := &responses{inner: *u}
			*u = out
			c.Load(img)
			if halt := c.Run(20_000_000); halt != cpu.HaltExit || c.ExitCode != 0 {
				t.Fatalf("%s: halt=%v exit=%d (%s)", m.Name, halt, c.ExitCode, c.FaultMsg)
			}
			return out, c
		}
		bare, bc := run(func(*cpu.CPU) {})

		cfg := &Config{Module: m, guardSet: guard.All(m.Name)}
		var rec *cpu.Recording
		var d *diverge
		var log *guard.Log
		stacked, sc := run(func(c *cpu.CPU) {
			u := c.Unit(m.Name)
			rec = &cpu.Recording{Inner: *u}
			*u = rec
			d = track(m, c)
			log = attachGuards(cfg, c)
		})

		if len(bare.seen) == 0 || !reflect.DeepEqual(stacked.seen, bare.seen) {
			t.Errorf("%s: the wrapped Driver answered %d ops differently from the bare one's %d",
				m.Name, len(stacked.seen), len(bare.seen))
		}
		if digest(sc) != digest(bc) || sc.Cycles != bc.Cycles {
			t.Errorf("%s: wrapped run ended digest %#x after %d cycles, bare %#x after %d",
				m.Name, digest(sc), sc.Cycles, digest(bc), bc.Cycles)
		}
		n := uint64(len(bare.seen))
		if uint64(len(rec.Trace)) != n || log.Ops != n {
			t.Errorf("%s: recorder saw %d ops, guards %d, the CPU %d", m.Name, len(rec.Trace), log.Ops, n)
		}
		if d.hit || log.Fired() {
			t.Errorf("%s: healthy netlist: tracker diverged=%v, guards fired=%v (%s)", m.Name, d.hit, log.Fired(), log.First)
		}
	}
}
