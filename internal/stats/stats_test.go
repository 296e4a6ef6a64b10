package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed must yield same stream")
		}
	}
	c := NewRNG(43)
	same := true
	a2 := NewRNG(42)
	for i := 0; i < 10; i++ {
		if a2.Float64() != c.Float64() {
			same = false
		}
	}
	if same {
		t.Error("different seeds should diverge")
	}
}

func TestCategorical(t *testing.T) {
	g := NewRNG(5)
	counts := make([]int, 3)
	p := []float64{0.1, 0.2, 0.7}
	const n = 30000
	for i := 0; i < n; i++ {
		counts[g.Categorical(p)]++
	}
	for i, want := range p {
		got := float64(counts[i]) / n
		if math.Abs(got-want) > 0.02 {
			t.Errorf("category %d frequency %.3f, want ~%.3f", i, got, want)
		}
	}
}

func TestCategoricalPanics(t *testing.T) {
	g := NewRNG(1)
	for _, p := range [][]float64{nil, {}, {0, 0}, {-1, 2}} {
		p := p
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("expected panic for %v", p)
				}
			}()
			g.Categorical(p)
		}()
	}
}

func TestEMA(t *testing.T) {
	e := NewEMA(0.5)
	if e.Initialized() {
		t.Error("fresh EMA should be uninitialized")
	}
	if got := e.Update(10); got != 10 {
		t.Errorf("first update = %v, want 10", got)
	}
	if got := e.Update(20); got != 15 {
		t.Errorf("second update = %v, want 15", got)
	}
	if !e.Initialized() || e.Value() != 15 {
		t.Error("EMA state wrong after updates")
	}
}

func TestEMAPanicsOnBadAlpha(t *testing.T) {
	for _, a := range []float64{0, -1, 1.5} {
		a := a
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("expected panic for alpha=%v", a)
				}
			}()
			NewEMA(a)
		}()
	}
}

func TestArgMaxAndClamp(t *testing.T) {
	if ArgMax([]float64{1, 5, 5, 2}) != 1 {
		t.Error("ArgMax should return first maximum")
	}
	if ArgMax(nil) != -1 {
		t.Error("ArgMax(nil) should be -1")
	}
	if Clamp(5, 0, 3) != 3 || Clamp(-1, 0, 3) != 0 || Clamp(2, 0, 3) != 2 {
		t.Error("Clamp wrong")
	}
}

// Property: EMA stays within [min, max] of observed values.
func TestEMABounded(t *testing.T) {
	f := func(vals []float64) bool {
		if len(vals) == 0 {
			return true
		}
		e := NewEMA(0.3)
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
			got := e.Update(v)
			if got < lo-1e-9 || got > hi+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHashUnitRange(t *testing.T) {
	f := func(s string) bool {
		u := HashUnit(s)
		return u >= 0 && u < 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if HashUnit("a") == HashUnit("b") {
		t.Error("distinct strings should (almost surely) hash differently")
	}
	if HashUnit("x") != HashUnit("x") {
		t.Error("hash must be stable")
	}
}
