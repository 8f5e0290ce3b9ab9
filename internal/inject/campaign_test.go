package inject

import (
	"bytes"
	"context"
	"path/filepath"
	"testing"

	"repro/internal/alu"
	"repro/internal/cell"
	"repro/internal/cpu"
	"repro/internal/fault"
	"repro/internal/isa"
	"repro/internal/lift"
	"repro/internal/module"
	"repro/internal/netlist"
	"repro/internal/sta"
)

const memSize = 1 << 20

// testCampaign builds a small deterministic ALU campaign: a random
// suite image (behavioural-golden, no BMC needed) and a sampled
// universe with no exclusions.
func testCampaign(t testing.TB, perClass int) (Config, *module.Module) {
	t.Helper()
	m := alu.Build()
	suite := lift.RandomSuite(m, 6, 7)
	img, err := suite.Image()
	if err != nil {
		t.Fatal(err)
	}
	specs := SampleUniverse(m, nil, perClass, 42)
	if len(specs) != 4*perClass {
		t.Fatalf("sampled %d specs, want %d", len(specs), 4*perClass)
	}
	return Config{
		Module:    m,
		Image:     img,
		Mode:      "standalone",
		Specs:     specs,
		Seed:      42,
		MemSize:   memSize,
		MaxCycles: 20_000_000,
	}, m
}

// runJSON is the report of the production path; scalarJSON that of its
// oracle.
func runJSON(t *testing.T, cfg Config) []byte    { return reportJSON(t, Run, cfg) }
func scalarJSON(t *testing.T, cfg Config) []byte { return reportJSON(t, runScalar, cfg) }

func reportJSON(t *testing.T, run func(context.Context, Config) (*Report, error), cfg Config) []byte {
	t.Helper()
	rep, err := run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	data, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestCampaignDeterminism pins the campaign's core contract: the same
// seed yields a byte-identical report at every parallelism setting.
func TestCampaignDeterminism(t *testing.T) {
	cfg, _ := testCampaign(t, 2)
	cfg.Parallelism = 1
	j1 := runJSON(t, cfg)
	cfg.Parallelism = 8
	j8 := runJSON(t, cfg)
	if !bytes.Equal(j1, j8) {
		t.Errorf("reports differ between -j1 and -j8:\n%s\n---\n%s", j1, j8)
	}
}

// TestCampaignCompletes checks the straight-through path: everything
// classified, nothing partial, sane per-class bookkeeping.
func TestCampaignCompletes(t *testing.T) {
	cfg, _ := testCampaign(t, 2)
	rep, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Partial || rep.Completed != rep.Total || rep.Total != len(cfg.Specs) {
		t.Fatalf("completed %d/%d partial=%v", rep.Completed, rep.Total, rep.Partial)
	}
	if len(rep.Results) != rep.Total {
		t.Fatalf("%d results for %d injections", len(rep.Results), rep.Total)
	}
	classTotal := 0
	for _, cs := range rep.Classes {
		classTotal += cs.Total
		if n := cs.Detected + cs.Masked + cs.SDCEscape + cs.StallCrash; n != cs.Total {
			t.Errorf("class %s: outcomes %d != total %d", cs.Class, n, cs.Total)
		}
	}
	if classTotal != rep.Total {
		t.Errorf("class totals %d != %d", classTotal, rep.Total)
	}
}

// TestCampaignDuplicateSpecsShareResults: a result is a pure function
// of its spec, so duplicated specs (SampleUniverse drawing more than a
// small universe holds) are evaluated once and the copies inherit the
// run byte-for-byte — same outcome, digest, cycles, divergence — with
// only the index rewritten. The scalar oracle, which evaluates every
// copy, must agree on the whole report.
func TestCampaignDuplicateSpecsShareResults(t *testing.T) {
	cfg, _ := testCampaign(t, 2)
	cfg.Specs = append(cfg.Specs, cfg.Specs[0], cfg.Specs[3], cfg.Specs[5])
	cfg.Parallelism = 1
	rep, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != len(cfg.Specs) {
		t.Fatalf("completed %d/%d", rep.Completed, len(cfg.Specs))
	}
	byIdx := make(map[int]Result)
	for _, r := range rep.Results {
		byIdx[r.Index] = r
	}
	for want, got := range map[int]int{0: 8, 3: 9, 5: 10} {
		w, g := byIdx[want], byIdx[got]
		if g.Index != got {
			t.Fatalf("duplicate of %d has index %d, want %d", want, g.Index, got)
		}
		w.Index = g.Index
		if w != g {
			t.Errorf("duplicate of spec %d diverges:\n %+v\n %+v", want, w, g)
		}
	}
	j := scalarJSON(t, cfg)
	if p := runJSON(t, cfg); !bytes.Equal(j, p) {
		t.Errorf("packed and scalar reports differ with duplicate specs:\n%s\n---\n%s", p, j)
	}
}

// TestCampaignInterruptAndResume is the checkpoint/resume contract: a
// campaign cancelled mid-flight leaves a checkpoint from which a second
// Run produces the byte-identical final report of an uninterrupted run.
func TestCampaignInterruptAndResume(t *testing.T) {
	cfg, _ := testCampaign(t, 2)
	cfg.Parallelism = 2

	want := runJSON(t, cfg) // uninterrupted reference

	dir := t.TempDir()
	cfg.CheckpointPath = filepath.Join(dir, "campaign.json")
	cfg.CheckpointEvery = 3

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg.OnCheckpoint = func(done int) { cancel() } // die after the first wave
	partial, err := Run(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !partial.Partial || partial.Completed == 0 || partial.Completed >= partial.Total {
		t.Fatalf("interrupted campaign: completed %d/%d partial=%v",
			partial.Completed, partial.Total, partial.Partial)
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
		t.Errorf("resumed report differs from uninterrupted run:\n%s\n---\n%s", got, want)
	}
}

// TestCampaignDeadlinePartial: an already-expired context degrades to a
// partial report (coverage so far: nothing) rather than an error.
func TestCampaignDeadlinePartial(t *testing.T) {
	cfg, _ := testCampaign(t, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := Run(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Partial || rep.Completed != 0 {
		t.Fatalf("completed %d partial=%v under expired deadline", rep.Completed, rep.Partial)
	}
}

// TestCampaignRejectsForeignCheckpoint: a checkpoint from a different
// seed must not be silently merged.
func TestCampaignRejectsForeignCheckpoint(t *testing.T) {
	cfg, _ := testCampaign(t, 1)
	cfg.CheckpointPath = filepath.Join(t.TempDir(), "campaign.json")
	if _, err := Run(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	cfg.Seed = 43
	if _, err := Run(context.Background(), cfg); err == nil {
		t.Fatal("foreign checkpoint accepted")
	}
}

// TestClassifyTaxonomy pins the halt-reason -> outcome mapping.
func TestClassifyTaxonomy(t *testing.T) {
	cases := []struct {
		halt cpu.HaltReason
		eq   bool
		want Outcome
	}{
		{cpu.HaltBreak, false, Detected},
		{cpu.HaltExit, true, Masked},
		{cpu.HaltExit, false, SDCEscape},
		{cpu.HaltStalled, false, StallCrash},
		{cpu.HaltFault, false, StallCrash},
		{cpu.HaltLimit, false, StallCrash},
	}
	for _, tc := range cases {
		if got := classify(tc.halt, tc.eq); got != tc.want {
			t.Errorf("classify(%v, %v) = %v, want %v", tc.halt, tc.eq, got, tc.want)
		}
	}
}

// TestTransientFlipCausesEscapeOrDetection: a transient flip on an op
// the program actually executes must not be classified Masked — the
// corrupted result either trips a suite check or escapes into state.
func TestTransientFlipCausesVisibleOutcome(t *testing.T) {
	m := alu.Build()
	// A program whose single ALU op result is the exit code: flipping
	// bit 0 of op 0 must turn exit 7 into exit 6 -> SDC escape.
	a := isa.NewAsm()
	a.Li(isa.T0, 3)
	a.Li(isa.T1, 4)
	a.Add(isa.A0, isa.T0, isa.T1)
	a.Ecall()
	img, err := a.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Module:    m,
		Image:     img,
		Specs:     []Spec{{Class: Transient, Unit: "ALU", OpIndex: 0, Bit: 0}},
		MemSize:   memSize,
		MaxCycles: 1000,
	}
	// The golden run exits 7, not 0 — run the campaign pieces directly.
	c := cpu.New(memSize)
	if err := Attach(m, c, cfg.Specs[0]); err != nil {
		t.Fatal(err)
	}
	c.Load(img)
	if halt := c.RunCtx(context.Background(), 1000); halt != cpu.HaltExit {
		t.Fatalf("halt = %v", halt)
	}
	if c.ExitCode != 6 {
		t.Errorf("flipped exit = %d, want 6", c.ExitCode)
	}
}

// TestIntermittentFlipperGates: the LFSR gate must fire on some but not
// all ops for a sane period.
func TestIntermittentFlipperGates(t *testing.T) {
	m := alu.Build()
	fl := &flipper{golden: m.Golden, bit: 0, lfsr: lfsr16(0xACE1), period: 3}
	flips := 0
	const n = 3000
	for i := 0; i < n; i++ {
		r, _, _ := fl.Exec(0 /* ADD */, 0, 0)
		if r != 0 {
			flips++
		}
	}
	if flips == 0 || flips == n {
		t.Fatalf("intermittent flipper fired %d/%d times", flips, n)
	}
}

// TestBadSitesRejected: a wrong unit, an out-of-range cell or a non-DFF
// cell must fail the campaign (and the oracle's attach) before it
// reaches the overlay compiler or the netlist instrumentation.
func TestBadSitesRejected(t *testing.T) {
	cfg, m := testCampaign(t, 1)
	c := cpu.New(memSize)
	dffs := m.Netlist.DFFs()
	// Find a combinational (non-DFF) cell for the kind check.
	nonDFF := netlist.CellID(-1)
	for i := range m.Netlist.Cells {
		if m.Netlist.Cells[i].Kind != cell.DFF {
			nonDFF = netlist.CellID(i)
			break
		}
	}
	if nonDFF < 0 {
		t.Fatal("no combinational cell in ALU netlist")
	}
	site := func(start, end netlist.CellID) []fault.Spec {
		return []fault.Spec{{Type: sta.Setup, Start: start, End: end, C: fault.C1, Edge: fault.AnyChange}}
	}
	bad := []Spec{
		{Class: StuckAt, Unit: "FPU", Faults: site(dffs[0], dffs[1])}, // wrong unit
		{Class: StuckAt, Unit: "ALU", Faults: site(1<<30, dffs[0])},   // out of range
		{Class: StuckAt, Unit: "ALU", Faults: site(nonDFF, dffs[0])},  // not a flip-flop
	}
	for i, s := range bad {
		cfg.Specs = []Spec{s}
		if rep, err := Run(context.Background(), cfg); err == nil {
			t.Errorf("bad spec %d classified: %+v", i, rep.Results)
		}
		if err := attachScalar(m, c, s); err == nil {
			t.Errorf("bad spec %d accepted by the oracle", i)
		}
	}
}
