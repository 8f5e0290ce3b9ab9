package sta

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/aging"
	"repro/internal/cell"
	"repro/internal/netlist"
)

// perturbSP mutates nDeltas random nets' signal probabilities in place
// and returns the changed net IDs (with deliberate duplicates left in:
// UpdateSP must tolerate a net reported twice).
func perturbSP(nl *netlist.Netlist, cfg BatchConfig, rng *rand.Rand, nDeltas int) []netlist.NetID {
	changed := make([]netlist.NetID, 0, nDeltas)
	for i := 0; i < nDeltas; i++ {
		n := netlist.NetID(rng.Intn(nl.NumNets))
		cfg.Profile.SP[n] = rng.Float64()
		changed = append(changed, n)
	}
	return changed
}

// TestIncrementalMatchesFull is the incremental engine's differential
// contract: after any sequence of sparse SP updates, Results must
// deep-equal a from-scratch AnalyzeCorners over the same mutated
// profile. DeepEqual compares float64s with ==, so this is bit-identity.
func TestIncrementalMatchesFull(t *testing.T) {
	prop := func(seed int64) bool {
		nl, cfg, corners := randomCase(seed)
		rng := rand.New(rand.NewSource(seed ^ 0x1ec))
		inc := NewIncremental(nl, cfg, corners)
		defer inc.Close()

		if got, want := inc.Results(), AnalyzeCorners(nl, cfg, corners); !reflect.DeepEqual(got, want) {
			t.Logf("seed %d: initial Results diverge from AnalyzeCorners", seed)
			return false
		}
		for round := 0; round < 4; round++ {
			changed := perturbSP(nl, cfg, rng, 1+rng.Intn(5))
			got := inc.UpdateSP(changed)
			want := AnalyzeCorners(nl, cfg, corners)
			if !reflect.DeepEqual(got, want) {
				t.Logf("seed %d round %d: incremental diverges after %d SP deltas", seed, round, len(changed))
				return false
			}
		}
		return true
	}
	// The same cases every run; FuzzIncrementalSTA draws new ones.
	if err := quick.Check(prop, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

// TestIncrementalClockCone forces the expensive invalidation path:
// changing the SP of clock-cell outputs ages the clock network
// differently, which shifts every endpoint's launch and required times.
func TestIncrementalClockCone(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		nl, cfg, corners := randomCase(seed)
		inc := NewIncremental(nl, cfg, corners)
		var clkNets []netlist.NetID
		for _, c := range nl.Cells {
			if c.Kind.IsClock() {
				clkNets = append(clkNets, c.Out)
			}
		}
		if len(clkNets) == 0 {
			inc.Close()
			continue
		}
		rng := rand.New(rand.NewSource(seed))
		for _, n := range clkNets {
			cfg.Profile.SP[n] = rng.Float64()
		}
		got := inc.UpdateSP(clkNets)
		want := AnalyzeCorners(nl, cfg, corners)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("seed %d: clock-cone update diverges from full analysis", seed)
		}
		inc.Close()
	}
}

// TestIncrementalResultsAreStable pins the escape contract: a Result
// returned before an update must not be mutated by the update (an
// escaped factor buffer is retired, never written again).
func TestIncrementalResultsAreStable(t *testing.T) {
	nl, cfg, corners := randomCase(3)
	inc := NewIncremental(nl, cfg, corners)
	defer inc.Close()
	before := inc.Results()
	snapshot := make([]float64, len(before[0].Factor))
	copy(snapshot, before[0].Factor)

	rng := rand.New(rand.NewSource(9))
	for round := 0; round < 3; round++ {
		inc.UpdateSP(perturbSP(nl, cfg, rng, 8))
	}
	if !reflect.DeepEqual(before[0].Factor, snapshot) {
		t.Error("an update mutated a previously returned Result's Factor column")
	}
}

// TestIncrementalSharesFanout: a full analysis leaves its timing graph
// without the fanout tables only Incremental reads, and with its
// traversal orders sized exactly. Four Incrementals started at once on
// that cached graph build the tables once, equal to a graph's built
// alone, and a later one keeps them.
func TestIncrementalSharesFanout(t *testing.T) {
	nl := randomTimedNetlist(7)
	lib := cell.Lib28()
	cfg := BatchConfig{
		PeriodPs: CriticalDelay(nl, lib),
		Base:     lib,
		Model:    aging.Default(),
		Profile:  randomNetSP(nl, 8),
	}
	corners := []Corner{{Years: 10}, {Years: 3}}
	AnalyzeCorners(nl, cfg, corners)
	g := CachedGraph(nl)
	if g.combPos != nil || g.fanLo != nil || g.fanOp != nil {
		t.Fatal("a full analysis built the fanout tables")
	}
	if len(g.combOps) != cap(g.combOps) || len(g.endpoints) != cap(g.endpoints) {
		t.Errorf("combOps len %d cap %d, endpoints len %d cap %d: want len == cap",
			len(g.combOps), cap(g.combOps), len(g.endpoints), cap(g.endpoints))
	}
	incs := make([]*Incremental, 5)
	var wg sync.WaitGroup
	for i := range incs[:4] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			incs[i] = NewIncremental(nl, cfg, corners)
		}()
	}
	wg.Wait()
	want := CompileGraph(nl)
	want.buildFanout()
	if !reflect.DeepEqual(g.combPos, want.combPos) || !reflect.DeepEqual(g.fanLo, want.fanLo) ||
		!reflect.DeepEqual(g.fanOp, want.fanOp) {
		t.Fatal("the shared fanout tables differ from a graph's built alone")
	}
	fanOp := &g.fanOp[0]
	incs[4] = NewIncremental(nl, cfg, corners)
	if &g.fanOp[0] != fanOp {
		t.Error("a later NewIncremental rebuilt the fanout tables")
	}
	for _, inc := range incs {
		inc.Close()
	}
}

// TestIncrementalConeIsSparse is the point of the whole path: a single
// SP delta on a large design must re-time a small fraction of the
// combinational ops, not the whole netlist.
func TestIncrementalConeIsSparse(t *testing.T) {
	nl := randomTimedNetlist(7)
	lib := cell.Lib28()
	cfg := BatchConfig{
		PeriodPs: CriticalDelay(nl, lib) * 2, // relaxed: no violations, pure retiming cost
		Base:     lib,
		Model:    aging.Default(),
		Profile:  randomNetSP(nl, 8),
	}
	corners := []Corner{{Years: 10}}
	inc := NewIncremental(nl, cfg, corners)
	defer inc.Close()
	total := len(CachedGraph(nl).combOps)
	if inc.LastRetimed != total {
		t.Fatalf("initial pass retimed %d of %d ops", inc.LastRetimed, total)
	}
	// An update with no SP change retimes nothing.
	inc.UpdateSP(nil)
	if inc.LastRetimed != 0 {
		t.Errorf("empty update retimed %d ops", inc.LastRetimed)
	}
	// A no-op "change" (same value written back) retimes nothing either:
	// the delay lanes are bitwise unchanged.
	inc.UpdateSP([]netlist.NetID{0})
	if inc.LastRetimed != 0 {
		t.Errorf("bitwise-identical SP write retimed %d ops", inc.LastRetimed)
	}
}
