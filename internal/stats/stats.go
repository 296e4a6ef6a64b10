package stats

import "math"

// EMA is an exponential moving average, used as the REINFORCE reward
// baseline b in Eq. (1) of the paper. The zero value is invalid; use NewEMA.
type EMA struct {
	alpha float64
	value float64
	init  bool
}

// NewEMA returns an EMA with smoothing factor alpha in (0,1]. Larger alpha
// weights recent observations more heavily.
func NewEMA(alpha float64) *EMA {
	if alpha <= 0 || alpha > 1 {
		panic("stats: EMA alpha must be in (0,1]")
	}
	return &EMA{alpha: alpha}
}

// Update folds x into the average and returns the new value. The first
// observation initializes the average exactly.
func (e *EMA) Update(x float64) float64 {
	if !e.init {
		e.value = x
		e.init = true
		return x
	}
	e.value = e.alpha*x + (1-e.alpha)*e.value
	return e.value
}

// Value returns the current average (0 before any update).
func (e *EMA) Value() float64 { return e.value }

// Initialized reports whether at least one observation has been folded in.
func (e *EMA) Initialized() bool { return e.init }

// ArgMax returns the index of the maximum element of xs, or -1 if empty.
// Ties resolve to the first maximum.
func ArgMax(xs []float64) int {
	best := -1
	bv := math.Inf(-1)
	for i, v := range xs {
		if v > bv {
			bv, best = v, i
		}
	}
	return best
}

// Clamp limits x to [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
