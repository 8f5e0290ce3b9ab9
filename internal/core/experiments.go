package core

import (
	"context"
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/cpu"
	"repro/internal/embench"
	"repro/internal/fault"
	"repro/internal/inject"
	"repro/internal/integrate"
	"repro/internal/isa"
	"repro/internal/lift"
	"repro/internal/par"
	"repro/internal/sta"
)

// ---- Table 3: STA result with aging-aware timing libraries ----

// Table3Row summarizes one unit's aged STA.
type Table3Row struct {
	Unit        string
	WNSSetupPs  float64
	SetupPaths  int
	WNSHoldPs   float64
	HoldPaths   int
	UniquePairs int
}

// Table3 extracts the row from a completed aging analysis.
func (w *Workflow) Table3() Table3Row {
	r := Table3Row{Unit: w.Module.Name, UniquePairs: len(w.STA.Pairs)}
	r.SetupPaths = w.STA.NumSetupViolations
	r.HoldPaths = w.STA.NumHoldViolations
	if r.SetupPaths > 0 {
		r.WNSSetupPs = w.STA.WNSSetup
	}
	if r.HoldPaths > 0 {
		r.WNSHoldPs = w.STA.WNSHold
	}
	return r
}

// ---- Figure 8: distribution of aging-induced delay increase ----

// HistogramBin is one bar of the Figure 8 histogram.
type HistogramBin struct {
	LoPct, HiPct float64
	Count        int
	Frac         float64
}

// Figure8 bins the per-cell delay-increase percentages of the logic
// cells (clock network and ties excluded, as in the paper's figure).
func (w *Workflow) Figure8(bins int) []HistogramBin {
	var pcts []float64
	for i, f := range w.STA.Factor {
		k := w.Module.Netlist.Cells[i].Kind
		if k.IsClock() || k.NumInputs() == 0 {
			continue
		}
		pcts = append(pcts, (f-1)*100)
	}
	if len(pcts) == 0 {
		return nil
	}
	lo, hi := pcts[0], pcts[0]
	for _, p := range pcts {
		if p < lo {
			lo = p
		}
		if p > hi {
			hi = p
		}
	}
	if hi == lo {
		hi = lo + 1e-9
	}
	out := make([]HistogramBin, bins)
	for i := range out {
		out[i].LoPct = lo + (hi-lo)*float64(i)/float64(bins)
		out[i].HiPct = lo + (hi-lo)*float64(i+1)/float64(bins)
	}
	for _, p := range pcts {
		i := int((p - lo) / (hi - lo) * float64(bins))
		if i >= bins {
			i = bins - 1
		}
		out[i].Count++
	}
	for i := range out {
		out[i].Frac = float64(out[i].Count) / float64(len(pcts))
	}
	return out
}

// ---- Table 4: result of test-case construction ----

// Table4Row tallies construction outcomes for one unit/config.
type Table4Row struct {
	Unit          string
	Mitigation    bool
	Total         int
	S, UR, FF, FC int
}

// Pct returns the percentage of outcome o.
func (r Table4Row) Pct(n int) float64 {
	if r.Total == 0 {
		return 0
	}
	return 100 * float64(n) / float64(r.Total)
}

// Table4 tallies per-pair outcomes: a pair counts as "S" if any of its
// variants produced a test case, as the paper tallies pairs rather than
// variants.
func Table4(unit string, mitigation bool, results []lift.Result) Table4Row {
	type key struct{ s, e int32 }
	byPair := map[key][]lift.Result{}
	for _, r := range results {
		k := key{int32(r.Spec.Start), int32(r.Spec.End)}
		byPair[k] = append(byPair[k], r)
	}
	row := Table4Row{Unit: unit, Mitigation: mitigation, Total: len(byPair)}
	for _, rs := range byPair {
		best := lift.Unreachable
		seen := map[lift.Outcome]bool{}
		for _, r := range rs {
			seen[r.Outcome] = true
		}
		switch {
		case seen[lift.Success]:
			best = lift.Success
		case seen[lift.ConvFail]:
			best = lift.ConvFail
		case seen[lift.FormalTimeout]:
			best = lift.FormalTimeout
		default:
			best = lift.Unreachable
		}
		switch best {
		case lift.Success:
			row.S++
		case lift.Unreachable:
			row.UR++
		case lift.FormalTimeout:
			row.FF++
		case lift.ConvFail:
			row.FC++
		}
	}
	return row
}

// ---- Table 5: suite size and cycle cost ----

// Table5Row reports the suite's size and one-pass cycle cost.
type Table5Row struct {
	Unit       string
	Mitigation bool
	TestCases  int
	Cycles     uint64
}

// Table5 measures the assembled suite.
func Table5(unit string, mitigation bool, s *lift.Suite) (Table5Row, error) {
	cyc, err := SuiteCycles(s)
	return Table5Row{Unit: unit, Mitigation: mitigation, TestCases: len(s.Cases), Cycles: cyc}, err
}

// ---- Table 6: detection quality against failing netlists ----

// Detection classifies one failing netlist's fate under a suite run.
type Detection int

// Detection outcomes (Table 6 columns).
const (
	DetectedOwn    Detection = iota // detected by its own (first matching) test case
	DetectedBefore                  // "B": an earlier case caught it
	DetectedLater                   // "L": missed by its own case, caught later
	DetectedStall                   // "S": the CPU stalled
	Missed
)

// QualityRow aggregates Table 6 for one failure mode.
type QualityRow struct {
	Unit     string
	FM       fault.CValue
	Total    int
	Detected int // any detection, including stalls
	Before   int
	Later    int
	Stall    int
}

// Pct expresses n as a percentage of the row total.
func (r QualityRow) Pct(n int) float64 {
	if r.Total == 0 {
		return 0
	}
	return 100 * float64(n) / float64(r.Total)
}

// suitePair is one unique pair with a test case: its failure site and
// the index of its first ("own") case in the suite.
type suitePair struct {
	Pair   sta.Pair
	Type   sta.PathType
	OwnIdx int
}

// suitePairs lists the unique pairs that have at least one test case,
// with the index of their first case in the suite.
func suitePairs(s *lift.Suite) []suitePair {
	seen := map[sta.Pair]bool{}
	var out []suitePair
	for i, tc := range s.Cases {
		p := sta.Pair{Start: tc.Spec.Start, End: tc.Spec.End}
		if seen[p] {
			continue
		}
		seen[p] = true
		out = append(out, suitePair{p, tc.Spec.Type, i})
	}
	return out
}

// failureModes are the Table 6/7 rows: the wrong value C a violating
// flip-flop samples.
var failureModes = []fault.CValue{fault.C0, fault.C1, fault.CRandom}

// detectionOf classifies one finished replay from its halt reason (as
// cpu.HaltReason.String renders it) and the case that trapped, relative
// to the pair's own case. A replay that did not finish has no outcome:
// Detection's zero value is DetectedOwn, so it must never be tallied.
func detectionOf(halt string, caught, ownIdx int) (Detection, error) {
	switch halt {
	case cpu.HaltBreak.String():
		switch {
		case caught == ownIdx:
			return DetectedOwn, nil
		case caught < ownIdx:
			return DetectedBefore, nil
		default:
			return DetectedLater, nil
		}
	case cpu.HaltStalled.String(), cpu.HaltFault.String():
		// A hung handshake or a corrupted address that faults are both
		// software-visible symptoms (the paper's "S" category: the
		// application stops progressing).
		return DetectedStall, nil
	case cpu.HaltExit.String(), cpu.HaltLimit.String():
		return Missed, nil
	}
	return Missed, fmt.Errorf("core: suite replay did not finish (halt %q)", halt)
}

// replaySuite runs img on the aged silicon of every (failure mode, pair)
// and returns one Detection per failing netlist, mode-major in
// failureModes x pairs order. The failing netlists are never built: each
// is one stuck-class injection on the pair, so the whole set shares
// inject's packed fault waves (63 failure models beside a golden lane
// per gate-level run) and only lanes that physically diverge are
// replayed further. An incomplete report is an error.
func (w *Workflow) replaySuite(ctx context.Context, img *isa.Image, pairs []suitePair) ([]Detection, error) {
	if len(pairs) == 0 {
		return nil, nil
	}
	specs := make([]inject.Spec, 0, len(failureModes)*len(pairs))
	for _, mode := range failureModes {
		for _, p := range pairs {
			specs = append(specs, inject.Spec{Class: inject.StuckAt, Unit: w.Module.Name,
				Faults: []fault.Spec{{Type: p.Type, Start: p.Pair.Start, End: p.Pair.End, C: mode}}})
		}
	}
	rep, err := inject.Run(ctx, inject.Config{
		Module: w.Module, Image: img, Specs: specs,
		MemSize: MemSize, MaxCycles: MaxCycles, Parallelism: w.Config.Parallelism,
	})
	if err != nil {
		return nil, err
	}
	if rep.Partial || len(rep.Results) != len(specs) {
		return nil, fmt.Errorf("core: suite replay classified %d of %d failing netlists", rep.Completed, len(specs))
	}
	dets := make([]Detection, len(specs))
	for i, r := range rep.Results {
		if dets[i], err = detectionOf(r.Halt, r.Case, pairs[i%len(pairs)].OwnIdx); err != nil {
			return nil, fmt.Errorf("%s: %w", r.Spec, err)
		}
	}
	return dets, nil
}

// TestQuality runs the paper's Table 6 experiment for the given suite:
// for every unique pair with a test case, emulate the aged silicon with
// the corresponding failure model in each failure mode (C=0, C=1,
// random) and run the whole suite against it. A failed or incomplete
// replay is an error, not a silently zero-tallied detection.
func (w *Workflow) TestQuality(s *lift.Suite) ([]QualityRow, error) {
	img, err := s.Image()
	if err != nil {
		return nil, err
	}
	pairs := suitePairs(s)
	dets, err := w.replaySuite(context.Background(), img, pairs)
	if err != nil {
		return nil, err
	}

	var rows []QualityRow
	for mi, mode := range failureModes {
		row := QualityRow{Unit: w.Module.Name, FM: mode, Total: len(pairs)}
		for pi := range pairs {
			switch dets[mi*len(pairs)+pi] {
			case DetectedOwn:
				row.Detected++
			case DetectedBefore:
				row.Detected++
				row.Before++
			case DetectedLater:
				row.Detected++
				row.Later++
			case DetectedStall:
				row.Detected++
				row.Stall++
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// ---- Table 7: Vega vs random test suites ----

// VsRandomRow compares detection rates for one failure mode.
type VsRandomRow struct {
	Unit      string
	FM        fault.CValue
	VegaPct   float64
	RandomPct float64 // averaged over seeds
}

// VsRandom runs the Table 7 comparison: the Vega suite against random
// suites of the same size, averaged over the given number of seeds. A
// failed or incomplete replay is an error, not a silently zero-tallied
// detection.
func (w *Workflow) VsRandom(s *lift.Suite, seeds int) ([]VsRandomRow, error) {
	pairs := suitePairs(s)

	// One replay per suite: index 0 is the Vega suite, 1..seeds are the
	// random suites, each a deterministic function of its seed (derived
	// from the suite index, never a shared rand.Rand). Detections are
	// collected in suite order and reduced sequentially, so percentages
	// accumulate in the same order at any parallelism.
	dets, err := par.Map(context.Background(), 1+seeds, w.Config.Parallelism,
		func(ctx context.Context, k int) ([]Detection, error) {
			suite := s
			if k > 0 {
				suite = lift.RandomSuite(w.Module, len(s.Cases), int64(1000+k-1))
			}
			img, err := suite.Image()
			if err != nil {
				return nil, err
			}
			return w.replaySuite(ctx, img, pairs)
		})
	if err != nil {
		return nil, err
	}

	// pct is suite k's detection rate in failure mode mi.
	pct := func(mi, k int) float64 {
		n := 0
		for pi := range pairs {
			if dets[k][mi*len(pairs)+pi] != Missed {
				n++
			}
		}
		return 100 * float64(n) / float64(len(pairs))
	}
	var rows []VsRandomRow
	for mi, mode := range failureModes {
		row := VsRandomRow{Unit: w.Module.Name, FM: mode, VegaPct: pct(mi, 0)}
		var randTotal float64
		for seed := 0; seed < seeds; seed++ {
			randTotal += pct(mi, 1+seed)
		}
		row.RandomPct = randTotal / float64(seeds)
		rows = append(rows, row)
	}
	return rows, nil
}

// ---- Figure 9: integration overhead on embench ----

// Figure9Row is one (benchmark, suite-config) overhead bar.
type Figure9Row struct {
	App         string
	Config      string // "-N" or "-M"
	OverheadPct float64
	Period      int
}

// Figure9 measures the profile-guided integration overhead of the given
// suite over every embench workload.
func Figure9(suite *lift.Suite, config string, budget float64) ([]Figure9Row, error) {
	var rows []Figure9Row
	for _, b := range embench.All {
		app, err := b.Build()
		if err != nil {
			return nil, err
		}
		o, err := integrate.MeasureOverhead(b.Name, app, suite, budget, MemSize, MaxCycles)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Figure9Row{
			App:         b.Name,
			Config:      config,
			OverheadPct: o.Fraction * 100,
			Period:      o.Site.Period,
		})
	}
	return rows, nil
}

// MeanOverheadPct averages Figure 9 rows.
func MeanOverheadPct(rows []Figure9Row) float64 {
	if len(rows) == 0 {
		return 0
	}
	var sum float64
	for _, r := range rows {
		sum += r.OverheadPct
	}
	return sum / float64(len(rows))
}

// ---- shared helpers ----

// SortedResults orders lifting results by pair for stable reports.
func SortedResults(rs []lift.Result) []lift.Result {
	out := append([]lift.Result(nil), rs...)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Spec.Start != out[j].Spec.Start {
			return out[i].Spec.Start < out[j].Spec.Start
		}
		return out[i].Spec.End < out[j].Spec.End
	})
	return out
}

// ShuffledSuite returns a copy of the suite with its cases in a
// deterministic pseudo-random order (the random scheduling mode of the
// aging library, §3.4.1).
func ShuffledSuite(s *lift.Suite, seed int64) *lift.Suite {
	out := &lift.Suite{Unit: s.Unit, Cases: append([]*lift.TestCase(nil), s.Cases...)}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(out.Cases), func(i, j int) {
		out.Cases[i], out.Cases[j] = out.Cases[j], out.Cases[i]
	})
	return out
}

// Describe renders a one-line workflow summary.
func (w *Workflow) Describe() string {
	return fmt.Sprintf("%s @ %.0f MHz (scale %.3f, margin %.2f%%)",
		w.Module.Name, w.Module.FrequencyMHz(), w.Scale, 100*w.Module.SynthMargin)
}
