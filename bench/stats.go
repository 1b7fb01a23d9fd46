package main

import "sort"

// summary describes the samples of one wall-clock metric. With a handful
// of repetitions per run there are too few samples for a tail percentile,
// so the quartiles and the extremes are all it reports.
type summary struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
}

// summarize computes the median, quartiles and extremes of xs. The
// quartiles interpolate linearly between order statistics (the method of
// Python's statistics.quantiles(xs, n=4), which the acceptance driver
// uses), so spreads computed here and there agree.
func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return summary{
		N:      len(s),
		Median: quantile(s, 2),
		Q1:     quantile(s, 1),
		Q3:     quantile(s, 3),
		Min:    s[0],
		Max:    s[len(s)-1],
	}
}

// quantile returns the k-th quartile of the sorted samples by the
// exclusive method: position k(n+1)/4, clamped to the sample range.
func quantile(sorted []float64, k int) float64 {
	n := len(sorted)
	if n == 1 {
		return sorted[0]
	}
	pos := float64(k) * float64(n+1) / 4
	j := int(pos)
	switch {
	case j < 1:
		return sorted[0]
	case j >= n:
		return sorted[n-1]
	}
	frac := pos - float64(j)
	return sorted[j-1] + frac*(sorted[j]-sorted[j-1])
}

// spread is the distance between the quartiles as a share of the median:
// the run-to-run noise figure every bound is judged against.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / s.Median
}

func median(xs []float64) float64 { return summarize(xs).Median }
