package bench

import (
	"math"
	"sort"
)

// Quartiles returns the first quartile, the median and the third
// quartile of v, computed exactly as Python's
// statistics.quantiles(v, n=4) computes them (the "exclusive" method),
// because that is the rule the ledger's spread criterion is judged by.
// With fewer than two values every quartile is the value itself (0 when
// v is empty, so a summary always marshals).
func Quartiles(v []float64) (q1, med, q3 float64) {
	n := len(v)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return v[0], v[0], v[0]
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// Median returns the median of v (0 when empty).
func Median(v []float64) float64 {
	_, med, _ := Quartiles(v)
	return med
}

// Spread is the inter-quartile distance of v as a share of its median —
// the number a metric's bound is compared against.
func Spread(v []float64) float64 {
	q1, med, q3 := Quartiles(v)
	if med == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / med)
}

// tailLadder lists the percentiles a tail may be reported at.
var tailLadder = []float64{50, 75, 90, 95, 99, 99.9}

// TailPercentile picks the highest percentile of the ladder that still
// has at least ten samples beyond it and returns that percentile with
// its nearest-rank value. A tail read from fewer than ten samples is
// one outlier's opinion, so with fewer than twenty samples the answer
// is the median.
func TailPercentile(v []float64) (pct, value float64) {
	n := len(v)
	if n == 0 {
		return 50, 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pct = tailLadder[0]
	for _, p := range tailLadder {
		if float64(n)*(100-p)/100 >= 10 {
			pct = p
		}
	}
	if pct == 50 {
		return pct, Median(s)
	}
	rank := int(math.Ceil(float64(n) * pct / 100))
	if rank < 1 {
		rank = 1
	}
	return pct, s[rank-1]
}

// Summary is the per-metric digest the ledger stores: sample count,
// median and quartiles, plus the raw samples so a reader can recompute
// anything else.
type Summary struct {
	N       int       `json:"n"`
	Median  float64   `json:"median"`
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
	Samples []float64 `json:"samples"`
}

// Summarize digests one metric's samples.
func Summarize(v []float64) Summary {
	q1, med, q3 := Quartiles(v)
	return Summary{N: len(v), Median: med, Q1: q1, Q3: q3, Samples: v}
}
