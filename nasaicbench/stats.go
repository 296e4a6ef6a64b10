package main

import (
	"sort"
	"time"
)

// subSeed derives the i-th input seed of a run from the workload seed
// (splitmix64 finalizer), so one --seed fixes every exploration and job a run
// makes. Results are positive and fit in 31 bits.
func subSeed(seed int64, i int) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(i+1)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z>>33) + 1
}

// quantile returns the q-quantile of xs, interpolating linearly between
// order statistics; 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func us(d time.Duration) float64 { return float64(d) / 1e3 }

// ratio is a/b, or 0 when b is 0 (a layer the workload never reached).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func pct(a, b float64) float64 { return 100 * ratio(a, b) }

// medians reduces per-repeat metric maps to the per-name median.
func medians(runs []map[string]float64) map[string]float64 {
	cols := map[string][]float64{}
	for _, r := range runs {
		for k, v := range r {
			cols[k] = append(cols[k], v)
		}
	}
	out := make(map[string]float64, len(cols))
	for k, v := range cols {
		out[k] = median(v)
	}
	return out
}
