package inject

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/alu"
	"repro/internal/cpu"
	"repro/internal/embench"
	"repro/internal/integrate"
	"repro/internal/isa"
	"repro/internal/lift"
	"repro/internal/module"
)

// embeddedImage is minver carrying a random suite for m at the 1 %
// overhead budget, as `vega inject -mode embedded -workload minver`
// builds it around the lifted suite.
func embeddedImage(t *testing.T, m *module.Module, cases int, seed int64) *isa.Image {
	t.Helper()
	b, _ := embench.ByName("minver")
	app, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	emb, err := integrate.ProfileGuided(app, lift.RandomSuite(m, cases, seed), 0.01, memSize, 50_000_000)
	if err != nil {
		t.Fatal(err)
	}
	return emb.Image
}

// TestEmbeddedPackedMatchesScalar is TestPackedMatchesScalar in embedded
// mode: minver carrying a suite, under stuck-at and multi-fault specs.
// The cycle budget is 1.65x the golden run's 60,474 cycles, so a lane
// the fault sends into a loop reaches it within a second, while other
// lanes of its gang still wait on the gate level; the universe is drawn
// so that at least two lanes do and some lanes do not.
func TestEmbeddedPackedMatchesScalar(t *testing.T) {
	m := alu.Build()
	img := embeddedImage(t, m, 4, 3)
	var specs []Spec
	for _, s := range SampleUniverse(m, nil, 6, 2) {
		if s.Class == StuckAt || s.Class == MultiFault {
			specs = append(specs, s)
		}
	}
	cfg := Config{Module: m, Image: img, Mode: "embedded", Specs: specs, MemSize: memSize, MaxCycles: 100_000}
	scalar := scalarJSON(t, cfg)
	packed := runJSON(t, cfg)
	if !bytes.Equal(scalar, packed) {
		t.Fatalf("packed report differs from scalar:\n--- scalar\n%s\n--- packed\n%s", scalar, packed)
	}
	var rep Report
	if err := json.Unmarshal(packed, &rep); err != nil {
		t.Fatal(err)
	}
	limit := 0
	for _, r := range rep.Results {
		if r.Halt == cpu.HaltLimit.String() {
			limit++
		}
	}
	if limit < 2 || limit == len(rep.Results) {
		t.Errorf("%d of %d runs reached the cycle limit: the universe proves less than it should", limit, len(rep.Results))
	}
}
