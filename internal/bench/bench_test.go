package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"
)

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(v, n=4) for each input, computed with Python.
	cases := []struct {
		v           []float64
		q1, med, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 1, 7, 3, 5}, 2, 5, 8.5},
		{[]float64{4, 2}, 1.5, 3, 4.5},
		{[]float64{3}, 3, 3, 3},
	}
	for _, c := range cases {
		q1, med, q3 := Quartiles(c.v)
		if q1 != c.q1 || med != c.med || q3 != c.q3 {
			t.Errorf("Quartiles(%v) = %v %v %v, want %v %v %v", c.v, q1, med, q3, c.q1, c.med, c.q3)
		}
	}
	if got := Spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); got != 1 {
		t.Errorf("Spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
	if q1, med, q3 := Quartiles(nil); q1 != 0 || med != 0 || q3 != 0 {
		t.Errorf("Quartiles(nil) = %v %v %v, want zeros (a summary must marshal)", q1, med, q3)
	}
}

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(i + 1)
		}
		return v
	}
	cases := []struct {
		n          int
		pct, value float64
	}{
		{19, 50, 10},   // fewer than 10 beyond any tail: the median
		{40, 75, 30},   // 10 beyond p75
		{99, 75, 75},   // 9.9 beyond p90: not enough
		{100, 90, 90},  // exactly 10 beyond p90
		{860, 95, 817}, // 43 beyond p95, 8.6 beyond p99
		{1000, 99, 990},
	}
	for _, c := range cases {
		pct, value := TailPercentile(seq(c.n))
		if pct != c.pct || value != c.value {
			t.Errorf("TailPercentile(1..%d) = p%v %v, want p%v %v", c.n, pct, value, c.pct, c.value)
		}
	}
}

func TestSpanSelfTimeIsDurationMinusChildCoverage(t *testing.T) {
	spans := []Span{
		{ID: 1, Parent: 0, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},  // overlaps a: union is 10..60
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // clipped to the parent
		{ID: 5, Parent: 2, Name: "a.leaf", Start: 15, End: 20},
	}
	self := SelfTimes(spans)
	want := map[int]time.Duration{1: 40, 2: 25, 3: 30, 4: 30, 5: 5}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("SelfTimes = %v, want %v", self, want)
	}
	if got := UnattributedShare(spans); got != 0.4 {
		t.Errorf("UnattributedShare = %v, want 0.4", got)
	}
	if got := TotalByName(spans)["a"]; got != 30e-9 {
		t.Errorf("TotalByName[a] = %v, want 30ns", got)
	}
}

func TestNilTracerIsTheUntracedRun(t *testing.T) {
	var tr *Tracer
	ran := false
	tr.Do("x", tr.Start("root", 0), func() { ran = true })
	tr.End(0)
	if !ran || tr.Spans() != nil {
		t.Errorf("nil tracer: ran=%v spans=%v", ran, tr.Spans())
	}
}

func TestManifestIsValidAndMatchesBenchmarkJSON(t *testing.T) {
	m := CurrentManifest()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	onDisk, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, ManifestJSON()) {
		t.Error("BENCHMARK.json differs from the metric tables; regenerate it with `go run ./cmd/vega-bench manifest > BENCHMARK.json`")
	}
	if len(onDisk) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(onDisk))
	}
	for _, name := range ExactCounts {
		found := false
		for _, d := range PerLayer {
			found = found || d.Name == name
		}
		if !found {
			t.Errorf("exact count %s is not a per-layer metric", name)
		}
	}
}

func TestValidateRejectsWhatTheDriverRefuses(t *testing.T) {
	bad := map[string]func(*Manifest){
		"space in name":   func(m *Manifest) { m.PerLayer[0].Name = "trace overhead" },
		"65-char name":    func(m *Manifest) { m.PerLayer[0].Name = strings.Repeat("x", 65) },
		"duplicate name":  func(m *Manifest) { m.PerLayer[1].Name = m.PerLayer[0].Name },
		"bad unit":        func(m *Manifest) { m.EndToEnd[0].Unit = "s per op" },
		"bound over 0.25": func(m *Manifest) { m.EndToEnd[0].Bound = 0.3 },
		"no setup_s":      func(m *Manifest) { m.EndToEnd = m.EndToEnd[:len(m.EndToEnd)-1] },
		"one workload":    func(m *Manifest) { m.Workloads = m.Workloads[:1] },
		"nine workloads": func(m *Manifest) {
			for i := 0; i < 5; i++ {
				m.Workloads = append(m.Workloads, WorkloadDef{Name: "w" + string(rune('a'+i)), Why: "x"})
			}
		},
		"17 end-to-end": func(m *Manifest) {
			for i := 0; i < 13; i++ {
				m.EndToEnd = append(m.EndToEnd, MetricDef{"e" + string(rune('a'+i)), "s", "lower", 0.1})
			}
		},
		"129 per-layer": func(m *Manifest) {
			for i := len(m.PerLayer); i < 129; i++ {
				m.PerLayer = append(m.PerLayer, MetricDef{Name: "p" + strings.Repeat("a", i), Unit: "s", Better: "lower"})
			}
		},
		"201-char why": func(m *Manifest) { m.Workloads[0].Why = strings.Repeat("y", 201) },
	}
	for name, mutate := range bad {
		var m Manifest
		if err := json.Unmarshal(ManifestJSON(), &m); err != nil {
			t.Fatal(err)
		}
		mutate(&m)
		if m.Validate() == nil {
			t.Errorf("%s: Validate accepted it", name)
		}
	}
}

func TestSeededGeneratorsAreDeterministic(t *testing.T) {
	hot := []string{"module hot0 (\n);\nendmodule\n", "module hot1 (\n);\nendmodule\n"}
	a, b := FleetPopulation(7, hot), FleetPopulation(7, hot)
	if !reflect.DeepEqual(a, b) {
		t.Error("FleetPopulation differs between two calls with one seed")
	}
	if reflect.DeepEqual(a, FleetPopulation(8, hot)) {
		t.Error("FleetPopulation ignores its seed")
	}
	kinds, cold := map[string]int{}, 0
	seeds := map[uint64]bool{}
	for _, j := range a {
		kinds[j.Spec.Kind]++
		if j.Cold {
			cold++
			if !strings.Contains(j.Spec.Verilog, "module hot0_cold_7_") {
				t.Errorf("cold sweep is not a rename of hot[0]: %q", j.Spec.Verilog)
			}
		}
		if j.Spec.Kind == "campaign" {
			seeds[j.Spec.Seed] = true
		}
	}
	if kinds["sweep"] != 960 || kinds["lift"] != 120 || kinds["campaign"] != 120 || cold != 96 || len(seeds) != 120 {
		t.Errorf("population: kinds %v, %d cold, %d campaign seeds; want 960/120/120 sweeps/lifts/campaigns, 96 cold, 120 seeds", kinds, cold, len(seeds))
	}

	ids1, sp1 := SPDeltas(7, 3, 1000, 20)
	ids2, sp2 := SPDeltas(7, 3, 1000, 20)
	if !reflect.DeepEqual(ids1, ids2) || !reflect.DeepEqual(sp1, sp2) {
		t.Error("SPDeltas differs between two calls with one seed")
	}
	if ids3, _ := SPDeltas(7, 4, 1000, 20); reflect.DeepEqual(ids1, ids3) {
		t.Error("SPDeltas ignores the update index")
	}
}

func TestVerdictNeverSaysUnchanged(t *testing.T) {
	steady := func(m float64) Summary { return Summarize([]float64{m * 0.99, m, m, m * 1.01}) }
	noisy := Summarize([]float64{5, 10, 10, 20})
	if got := verdict(steady(10), steady(10.5), "lower", 0.1); got != VerdictOK {
		t.Errorf("5%% slower within a 10%% bound: %s", got)
	}
	if got := verdict(steady(10), steady(11.5), "lower", 0.1); got != VerdictWorse {
		t.Errorf("15%% slower: %s", got)
	}
	if got := verdict(steady(10), steady(8), "higher", 0.1); got != VerdictWorse {
		t.Errorf("20%% less throughput: %s", got)
	}
	if got := verdict(steady(10), steady(20), "higher", 0.1); got != VerdictOK {
		t.Errorf("twice the throughput: %s", got)
	}
	if got := verdict(steady(10), noisy, "lower", 0.1); got != VerdictUnresolved {
		t.Errorf("spread beyond the bound: %s", got)
	}

	a := &Ledger{Seed: 1, Workloads: []*WorkloadResult{{Workload: LiftFPU,
		EndToEnd: map[string]Summary{MOp: steady(10)}, PerLayer: map[string]float64{"sat.conflicts": 5}}}}
	b := &Ledger{Seed: 1, Workloads: []*WorkloadResult{{Workload: LiftFPU,
		EndToEnd: map[string]Summary{MOp: steady(13)}, PerLayer: map[string]float64{"sat.conflicts": 6}}}}
	rows, diffs := Compare(a, b)
	if len(rows) != 1 || rows[0].Verdict != VerdictWorse || math.Abs(rows[0].Ratio-1.3) > 1e-9 || len(diffs) != 1 {
		t.Errorf("Compare: rows %+v diffs %v", rows, diffs)
	}
	var out bytes.Buffer
	if n := WriteComparison(&out, rows, diffs); n != 2 || !strings.Contains(out.String(), "worse") {
		t.Errorf("WriteComparison: %d not ok\n%s", n, out.String())
	}
}

// TestSmoke runs every workload once at reduced size (ALU instead of
// FPU, 10^4 cells, 40 jobs), traced, in process, so the ledger cannot
// rot between benchmark runs: every oracle must pass, and the contract
// lines must carry exactly the metrics BENCHMARK.json lists.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke runs the four workloads")
	}
	// Run keeps its scratch directory in the working directory.
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	for _, w := range Workloads {
		res, err := Run(context.Background(), Options{Workload: w.Name, Seed: 3, Seconds: 0.2, Trace: true,
			Params: SmokeParams(), Spawn: InProcess})
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if !res.Correct() || res.Attempted == 0 {
			t.Errorf("%s: attempted %d, failed %d: %v", w.Name, res.Attempted, res.Failed, res.Failures)
		}
		if len(res.Spans) == 0 || len(res.Digests) == 0 {
			t.Errorf("%s: %d spans, %d digests", w.Name, len(res.Spans), len(res.Digests))
		}
		if w.Name == FleetMixed && !strings.Contains(res.Load, "closed loop x 2 clients") {
			t.Errorf("fleet-mixed does not state its load model: %q", res.Load)
		}
		for _, d := range EndToEnd {
			if s := res.EndToEnd[d.Name]; s.N == 0 || s.Median <= 0 {
				t.Errorf("%s: end-to-end metric %s = %+v, want a positive reading", w.Name, d.Name, s)
			}
		}
		checkLine(t, res, false, EndToEnd)
		checkLine(t, res, true, PerLayer)
	}
}

// checkLine holds one contract line to its definition: the four result
// keys, and exactly the listed metrics, each with its listed unit.
func checkLine(t *testing.T, res *WorkloadResult, trace bool, defs []MetricDef) {
	t.Helper()
	line, err := res.ContractLine(trace)
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Correct   *bool `json:"correct"`
		Attempted *int  `json:"attempted"`
		Failed    *int  `json:"failed"`
		Metrics   map[string]struct {
			Value *float64 `json:"value"`
			Unit  string   `json:"unit"`
		} `json:"metrics"`
	}
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatalf("%s: contract line: %v", res.Workload, err)
	}
	if got.Correct == nil || got.Attempted == nil || got.Failed == nil || *got.Attempted < 1 {
		t.Errorf("%s: contract line lacks a result key: %s", res.Workload, line)
	}
	var want, have []string
	for _, d := range defs {
		want = append(want, d.Name)
		if m, ok := got.Metrics[d.Name]; !ok || m.Value == nil || m.Unit != d.Unit {
			t.Errorf("%s: metric %s missing or with the wrong unit in %v", res.Workload, d.Name, m)
		}
	}
	for k := range got.Metrics {
		have = append(have, k)
	}
	sort.Strings(want)
	sort.Strings(have)
	if !reflect.DeepEqual(want, have) {
		t.Errorf("%s trace=%v: metrics %v, want %v", res.Workload, trace, have, want)
	}
}
