// Package report renders the experiment results as fixed-width text
// tables and histograms, in the shape of the paper's tables and figures.
package report

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/core"
	"repro/internal/inject"
)

// Table renders rows of cells with a header, padding columns to fit.
func Table(header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(header)
	var sep []string
	for _, w := range widths {
		sep = append(sep, strings.Repeat("-", w))
	}
	line(sep)
	for _, r := range rows {
		line(r)
	}
	return b.String()
}

// Histogram renders Figure-8-style bins as a bar chart.
func Histogram(bins []core.HistogramBin, width int) string {
	var b strings.Builder
	maxFrac := 0.0
	for _, bin := range bins {
		if bin.Frac > maxFrac {
			maxFrac = bin.Frac
		}
	}
	if maxFrac == 0 {
		return "(empty)\n"
	}
	for _, bin := range bins {
		bar := int(bin.Frac / maxFrac * float64(width))
		fmt.Fprintf(&b, "%5.2f%%-%5.2f%% | %-*s %5.1f%% (%d cells)\n",
			bin.LoPct, bin.HiPct, width, strings.Repeat("#", bar), bin.Frac*100, bin.Count)
	}
	return b.String()
}

// Bars renders Figure-9-style labeled value bars (values in percent,
// which may be negative).
func Bars(labels []string, values []float64, width int) string {
	maxAbs := 0.0
	for _, v := range values {
		if a := abs(v); a > maxAbs {
			maxAbs = a
		}
	}
	if maxAbs == 0 {
		maxAbs = 1
	}
	wLabel := 0
	for _, l := range labels {
		if len(l) > wLabel {
			wLabel = len(l)
		}
	}
	var b strings.Builder
	for i, v := range values {
		bar := int(abs(v) / maxAbs * float64(width))
		sign := ""
		if v < 0 {
			sign = "-"
		}
		fmt.Fprintf(&b, "%-*s | %s%-*s %+.3f%%\n", wLabel, labels[i], sign, width, strings.Repeat("#", bar), v)
	}
	return b.String()
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// Pct formats a percentage cell.
func Pct(v float64) string { return fmt.Sprintf("%.1f", v) }

// wilsonZ is the two-sided 95% normal quantile used by Wilson.
const wilsonZ = 1.959963984540054

// Wilson returns the 95% Wilson score confidence interval for a
// binomial proportion with k successes in n trials, as fractions in
// [0, 1]. Unlike the normal approximation it behaves sensibly at the
// edges: k=0 yields a nonzero upper bound (observing no escapes in n
// trials does not prove a zero escape rate), and k=n yields a lower
// bound below 1. n=0 carries no information and returns the vacuous
// interval [0, 1].
func Wilson(k, n int) (lo, hi float64) {
	if n <= 0 {
		return 0, 1
	}
	z := wilsonZ
	p := float64(k) / float64(n)
	nn := float64(n)
	denom := 1 + z*z/nn
	center := p + z*z/(2*nn)
	margin := z * math.Sqrt(p*(1-p)/nn+z*z/(4*nn*nn))
	lo = (center - margin) / denom
	hi = (center + margin) / denom
	// Pin the exact edges: at k=0 (k=n) the interval includes 0 (1) by
	// construction, but the float evaluation leaves a ~1e-17 residue.
	if k == 0 {
		lo = 0
	}
	if k == n {
		hi = 1
	}
	return math.Max(lo, 0), math.Min(hi, 1)
}

// ci renders a Wilson interval as a "lo-hi" percent cell.
func ci(k, n int) string {
	if n == 0 {
		return "-"
	}
	lo, hi := Wilson(k, n)
	return fmt.Sprintf("%.1f-%.1f", lo*100, hi*100)
}

// EscapeTable renders an injection campaign's per-class outcome counts
// and escape rates (internal/inject) with 95% Wilson confidence
// intervals on the escape rate. Guarded campaigns gain two columns: how
// many detections the runtime guards own (GrdDet — completed runs only
// the guard log flagged) and how many runs fired a guard at all
// (GrdFire, including masked ones); unguarded reports render exactly as
// before.
func EscapeTable(r *inject.Report) string {
	guarded := len(r.Guards) > 0
	var rows [][]string
	for _, c := range r.Classes {
		row := []string{
			c.Class,
			fmt.Sprint(c.Total),
			fmt.Sprint(c.Detected),
			fmt.Sprint(c.Masked),
			fmt.Sprint(c.SDCEscape),
			fmt.Sprint(c.StallCrash),
			Pct(c.EscapeRate * 100),
			ci(c.SDCEscape, c.Total),
		}
		if guarded {
			row = append(row, fmt.Sprint(c.GuardDetected), fmt.Sprint(c.GuardFired))
		}
		rows = append(rows, row)
	}
	hdr := []string{"Class", "N", "Det.", "Masked", "SDC", "Stall", "Escape%", "95% CI"}
	if guarded {
		hdr = append(hdr, "GrdDet", "GrdFire")
	}
	return Table(hdr, rows)
}

// PackedStatsTable renders the packed campaign path's per-class wave
// occupancy, savings, gang accounting and the wave ops answered from the
// recorded golden run (inject.RunWithStats).
func PackedStatsTable(ps *inject.PackedStats) string {
	var rows [][]string
	for i := range ps.Classes {
		c := &ps.Classes[i]
		saved := "-"
		if c.LanesUsed > 0 {
			saved = Pct(inject.Savings(ps.GoldenOps, c)*100) + "%"
		}
		occ := "-"
		if c.LaneSlots > 0 {
			occ = Pct(c.Occupancy()*100) + "%"
		}
		rows = append(rows, []string{
			c.Class,
			fmt.Sprint(c.Waves),
			fmt.Sprintf("%d/%d", c.LanesUsed, c.LaneSlots),
			occ,
			fmt.Sprint(c.Retired),
			fmt.Sprint(c.MaskedInWave),
			saved,
			fmt.Sprint(c.GangOps),
			fmt.Sprint(c.GangSettles),
			fmt.Sprint(c.SkippedOps),
			fmt.Sprint(c.Shortcut),
			fmt.Sprint(c.Replayed),
		})
	}
	return Table([]string{"Class", "Waves", "Lanes", "Occup.", "Retired", "MaskedFree",
		"SavedOps", "GangOps", "GangSettles", "SkippedOps", "Shortcut", "Replayed"}, rows)
}
