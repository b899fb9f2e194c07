package main

import (
	"fmt"
	"sort"
)

// timing summarizes one timed quantity over a run: the median, and the
// highest percentile that still has at least ten samples beyond it.
type timing struct {
	Median float64 `json:"median"`
	// Tail is the value at TailPct. With fewer than 11 samples no
	// percentile has ten samples beyond it; Tail is then the maximum
	// and TailPct is 100.
	Tail    float64 `json:"tail"`
	TailPct float64 `json:"tail_pct"`
	N       int     `json:"n"`
}

// tailPercentiles are the candidate tail percentiles, highest first.
// A fixed ladder keeps the reported percentile the same from run to
// run while the sample count wobbles.
var tailPercentiles = []float64{99, 95, 90, 75}

func summarize(xs []float64) timing {
	if len(xs) == 0 {
		return timing{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	t := timing{Median: quantile(s, 0.5), N: len(s), Tail: s[len(s)-1], TailPct: 100}
	for _, p := range tailPercentiles {
		if float64(len(s))*(100-p)/100 >= 10 {
			t.Tail, t.TailPct = quantile(s, p/100), p
			break
		}
	}
	return t
}

// quantile interpolates linearly between the closest ranks of sorted.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(i)
	return sorted[i] + frac*(sorted[i+1]-sorted[i])
}

func median(xs []float64) float64 { return summarize(xs).Median }

func (t timing) String() string {
	return fmt.Sprintf("median=%.6g p%g=%.6g n=%d", t.Median, t.TailPct, t.Tail, t.N)
}
