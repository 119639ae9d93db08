package main

import (
	"sort"
	"time"
)

// quantile returns the q-quantile of v by linear interpolation between the
// two nearest order statistics; 0 for no values.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	x := q * float64(len(s)-1)
	i := int(x)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (x-float64(i))*(s[i+1]-s[i])
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// bestDecile returns the value a tenth of v is at least as good as: the
// 10th percentile when lower is better, the 90th when higher is. Noise on a
// shared machine only ever slows a round down, so the good tail of many
// short rounds repeats far better from run to run than their middle does.
func bestDecile(v []float64, higher bool) float64 {
	if higher {
		return quantile(v, 0.9)
	}
	return quantile(v, 0.1)
}

// percentile returns the nearest-rank q-quantile of d in nanoseconds (d is
// sorted in place) and how many samples lie beyond it.
func percentile(d []time.Duration, q float64) (ns float64, beyond int) {
	if len(d) == 0 {
		return 0, 0
	}
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	i := int(q * float64(len(d)))
	if i >= len(d) {
		i = len(d) - 1
	}
	return float64(d[i]), len(d) - 1 - i
}

func mean(d []time.Duration) float64 {
	if len(d) == 0 {
		return 0
	}
	var sum time.Duration
	for _, x := range d {
		sum += x
	}
	return float64(sum) / float64(len(d))
}
