// Package pareto provides multi-objective dominance utilities for analyzing
// design-space exploration results: the Fig. 1 / Fig. 6 solution clouds live
// in the (latency, energy, area, −accuracy) space, and the interesting
// solutions are the non-dominated ones.
package pareto

// Point is a vector of objectives, all to be minimized (negate objectives
// that should be maximized).
type Point struct {
	Values []float64
	// Tag carries caller context (e.g. an index into the solution list).
	Tag int
}

// Dominates reports whether a dominates b: a is no worse in every objective
// and strictly better in at least one. Points of unequal dimension never
// dominate each other.
func Dominates(a, b Point) bool {
	if len(a.Values) != len(b.Values) {
		return false
	}
	strictly := false
	for i := range a.Values {
		if a.Values[i] > b.Values[i] {
			return false
		}
		if a.Values[i] < b.Values[i] {
			strictly = true
		}
	}
	return strictly
}

// Front returns the non-dominated subset of pts, preserving input order.
// Duplicate points all survive (none strictly dominates its copy).
func Front(pts []Point) []Point {
	var out []Point
	for i, p := range pts {
		dominated := false
		for j, q := range pts {
			if i == j {
				continue
			}
			if Dominates(q, p) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, p)
		}
	}
	return out
}
