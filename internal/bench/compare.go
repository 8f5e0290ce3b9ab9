package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Verdicts of Compare. There is no "unchanged": a pair whose run-to-run
// spread is wider than the bound is unresolved, whatever its medians
// say.
const (
	VerdictOK         = "ok"
	VerdictWorse      = "worse"
	VerdictUnresolved = "unresolved"
)

// Comparison is one workload x end-to-end metric row of Compare.
type Comparison struct {
	Workload, Metric, Unit string
	A, B                   Summary
	Ratio                  float64 // B's median over A's (the base)
	Bound                  float64
	Verdict                string
}

// LoadLedger reads a result file.
func LoadLedger(path string) (*Ledger, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	l := new(Ledger)
	if err := json.Unmarshal(data, l); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", path, err)
	}
	return l, nil
}

// verdict judges b against the base a for a metric with the given
// direction and bound.
func verdict(a, b Summary, better string, bound float64) string {
	if Spread(a.Samples) > bound || Spread(b.Samples) > bound {
		return VerdictUnresolved
	}
	worse := b.Median > a.Median*(1+bound)
	if better == "higher" {
		worse = b.Median < a.Median*(1-bound)
	}
	if worse {
		return VerdictWorse
	}
	return VerdictOK
}

// Compare judges ledger b against the base a: one row per workload and
// end-to-end metric present in both, plus the exact counts that differ
// (which a change meant only to speed the host must leave identical).
func Compare(a, b *Ledger) (rows []Comparison, countDiffs []string) {
	byName := map[string]*WorkloadResult{}
	for _, w := range b.Workloads {
		byName[w.Workload] = w
	}
	for _, wa := range a.Workloads {
		wb, ok := byName[wa.Workload]
		if !ok {
			continue
		}
		for _, d := range EndToEnd {
			sa, sb := wa.EndToEnd[d.Name], wb.EndToEnd[d.Name]
			if sa.N == 0 || sb.N == 0 {
				continue
			}
			row := Comparison{Workload: wa.Workload, Metric: d.Name, Unit: d.Unit, A: sa, B: sb,
				Bound: d.Bound, Verdict: verdict(sa, sb, d.Better, d.Bound)}
			if sa.Median != 0 {
				row.Ratio = sb.Median / sa.Median
			}
			rows = append(rows, row)
		}
		if a.Seed != b.Seed || wa.PerLayer == nil || wb.PerLayer == nil {
			continue
		}
		for _, name := range ExactCounts {
			if va, vb := wa.PerLayer[name], wb.PerLayer[name]; va != vb {
				countDiffs = append(countDiffs, fmt.Sprintf("%s %s: %v vs %v", wa.Workload, name, va, vb))
			}
		}
	}
	return rows, countDiffs
}

// WriteComparison prints Compare's outcome: both medians with their
// base, the ratio, the bound and the verdict. It returns how many rows
// are not ok.
func WriteComparison(w io.Writer, rows []Comparison, countDiffs []string) (notOK int) {
	fmt.Fprintf(w, "%-12s %-12s %14s %14s %-5s %8s %6s  %s\n", "workload", "metric", "a (base)", "b", "unit", "b/a", "bound", "verdict")
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s %-12s %14.6g %14.6g %-5s %8.4f %5.0f%%  %s (n=%d/%d, spread %.1f%%/%.1f%%)\n",
			r.Workload, r.Metric, r.A.Median, r.B.Median, r.Unit, r.Ratio, 100*r.Bound, r.Verdict,
			r.A.N, r.B.N, 100*Spread(r.A.Samples), 100*Spread(r.B.Samples))
		if r.Verdict != VerdictOK {
			notOK++
		}
	}
	if len(countDiffs) == 0 {
		fmt.Fprintln(w, "exact counts: identical (or not comparable: different seeds or untraced)")
	}
	for _, d := range countDiffs {
		fmt.Fprintf(w, "exact count differs: %s\n", d)
	}
	return notOK + len(countDiffs)
}
