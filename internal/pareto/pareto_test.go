package pareto

import (
	"testing"
	"testing/quick"

	"nasaic/internal/stats"
)

func TestDominates(t *testing.T) {
	a := Point{Values: []float64{1, 2}}
	b := Point{Values: []float64{2, 3}}
	c := Point{Values: []float64{1, 2}}
	d := Point{Values: []float64{0, 5}}
	if !Dominates(a, b) {
		t.Error("a should dominate b")
	}
	if Dominates(b, a) {
		t.Error("b should not dominate a")
	}
	if Dominates(a, c) || Dominates(c, a) {
		t.Error("equal points must not dominate each other")
	}
	if Dominates(a, d) || Dominates(d, a) {
		t.Error("incomparable points must not dominate each other")
	}
	if Dominates(a, Point{Values: []float64{1}}) {
		t.Error("dimension mismatch must not dominate")
	}
}

func TestFrontSimple(t *testing.T) {
	pts := []Point{
		{Values: []float64{1, 5}, Tag: 0},
		{Values: []float64{2, 2}, Tag: 1},
		{Values: []float64{5, 1}, Tag: 2},
		{Values: []float64{4, 4}, Tag: 3}, // dominated by (2,2)
		{Values: []float64{2, 6}, Tag: 4}, // dominated by (1,5)
	}
	f := Front(pts)
	if len(f) != 3 {
		t.Fatalf("front size %d, want 3", len(f))
	}
	tags := map[int]bool{}
	for _, p := range f {
		tags[p.Tag] = true
	}
	for _, want := range []int{0, 1, 2} {
		if !tags[want] {
			t.Errorf("tag %d missing from front", want)
		}
	}
}

// Property: no point in the front is dominated by any input point.
func TestFrontNonDominated(t *testing.T) {
	rng := stats.NewRNG(7)
	f := func(n8 uint8, dim8 uint8) bool {
		n := int(n8%30) + 1
		dim := int(dim8%3) + 2
		pts := make([]Point, n)
		for i := range pts {
			v := make([]float64, dim)
			for d := range v {
				v[d] = rng.Float64() * 10
			}
			pts[i] = Point{Values: v, Tag: i}
		}
		for _, p := range Front(pts) {
			for _, q := range pts {
				if q.Tag != p.Tag && Dominates(q, p) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
