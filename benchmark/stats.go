package main

import (
	"math"
	"sort"
	"time"
)

// percentile is the nearest-rank p-th percentile (0 < p ≤ 100) of sorted.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 {
	s := sortedCopy(v)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// iqr is the distance between the first and third quartile.
func iqr(v []float64) float64 {
	s := sortedCopy(v)
	return percentile(s, 75) - percentile(s, 25)
}

// tailPercentile is the highest of the usual percentiles that still has at
// least ten samples beyond it: with fewer the tail is a handful of
// individual requests, not a distribution.
func tailPercentile(samples int) float64 {
	best := 50.0
	for _, perMille := range []int{900, 950, 990, 999} {
		if samples*(1000-perMille)/1000 >= 10 {
			best = float64(perMille) / 10
		}
	}
	return best
}

// blockRates cuts completion times (sorted, measured from the window's
// start) into blocks of size consecutive completions and returns each
// block's rate per second. A trailing partial block is dropped, unless the
// window was too short for a whole one; then it is the only block.
func blockRates(ends []time.Duration, size int) []float64 {
	if n := len(ends); n > 0 && n < size && ends[n-1] > 0 {
		return []float64{float64(n) / ends[n-1].Seconds()}
	}
	var rates []float64
	prev := time.Duration(0)
	for i := size; i <= len(ends); i += size {
		if d := ends[i-1] - prev; d > 0 {
			rates = append(rates, float64(size)/d.Seconds())
		}
		prev = ends[i-1]
	}
	return rates
}

func geomean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range v {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(v)))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
