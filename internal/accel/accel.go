// Package accel models the heterogeneous ASIC accelerator of §III-➋: a set
// of sub-accelerators connected through NICs on a global interconnect, each
// sub-accelerator described by a dataflow template, a PE allocation, and a
// NoC bandwidth share. The package owns the resource-constraint checks
// (Σpe ≤ NP, Σbw ≤ BW) and the hardware design space enumerated by the
// search (the paper's alloc(aic_k) function).
package accel

import (
	"fmt"
	"strconv"
	"strings"

	"nasaic/internal/dataflow"
	"nasaic/internal/maestro"
	"nasaic/internal/stats"
)

// Limits are the global hardware resource bounds. The paper's experiments
// use NP=4096 PEs and BW=64 GB/s, following HERALD [22].
type Limits struct {
	MaxPEs int // NP
	MaxBW  int // BW, GB/s
}

// DefaultLimits returns the paper's experimental configuration (§V-A).
func DefaultLimits() Limits { return Limits{MaxPEs: 4096, MaxBW: 64} }

// SubAccel is one sub-accelerator: a dataflow template instantiated with a
// PE count and a NoC bandwidth share. A SubAccel with zero PEs is a
// degenerate (absent) sub-accelerator, which the paper uses to let a
// two-sub-accelerator search space cover single-accelerator designs.
type SubAccel struct {
	DF  dataflow.Style
	PEs int
	BW  int // GB/s
}

// Active reports whether the sub-accelerator has any compute resources.
func (s SubAccel) Active() bool { return s.PEs > 0 }

// String renders the paper's ⟨df, pe, bw⟩ tuple notation.
func (s SubAccel) String() string {
	return fmt.Sprintf("<%s, %d, %d>", s.DF, s.PEs, s.BW)
}

// Design is a complete heterogeneous accelerator: an ordered set of
// sub-accelerators sharing the global PE and bandwidth budgets.
type Design struct {
	Subs []SubAccel
}

// NewDesign returns a design over the given sub-accelerators.
func NewDesign(subs ...SubAccel) Design { return Design{Subs: subs} }

// TotalPEs returns Σ pe_i.
func (d Design) TotalPEs() int {
	t := 0
	for _, s := range d.Subs {
		t += s.PEs
	}
	return t
}

// TotalBW returns Σ bw_i over active sub-accelerators.
func (d Design) TotalBW() int {
	t := 0
	for _, s := range d.Subs {
		if s.Active() {
			t += s.BW
		}
	}
	return t
}

// Active returns the sub-accelerators with non-zero resources, with their
// original indices.
func (d Design) Active() []int {
	var idx []int
	for i, s := range d.Subs {
		if s.Active() {
			idx = append(idx, i)
		}
	}
	return idx
}

// Validate checks the design against the resource limits.
func (d Design) Validate(lim Limits) error {
	switch v, i := d.check(lim); v {
	case noSubs:
		return fmt.Errorf("accel: design has no sub-accelerators")
	case negativePEs:
		return fmt.Errorf("accel: sub-accelerator %d has negative PEs %d", i, d.Subs[i].PEs)
	case noBandwidth:
		return fmt.Errorf("accel: active sub-accelerator %d has no bandwidth", i)
	case noActive:
		return fmt.Errorf("accel: design has no active sub-accelerator")
	case tooManyPEs:
		return fmt.Errorf("accel: total PEs %d exceed limit %d", d.TotalPEs(), lim.MaxPEs)
	case tooMuchBW:
		return fmt.Errorf("accel: total bandwidth %d GB/s exceeds limit %d", d.TotalBW(), lim.MaxBW)
	}
	return nil
}

// violation is the first resource-limit condition a design breaks.
type violation int

const (
	fits violation = iota
	noSubs
	negativePEs
	noBandwidth
	noActive
	tooManyPEs
	tooMuchBW
)

// check returns the first condition d breaks under lim and, for
// negativePEs and noBandwidth, the sub-accelerator's index. It builds no
// error, so the feasibility test of every hardware request allocates
// nothing.
func (d Design) check(lim Limits) (violation, int) {
	active := 0
	for i, s := range d.Subs {
		switch {
		case s.PEs < 0:
			return negativePEs, i
		case s.Active() && s.BW <= 0:
			return noBandwidth, i
		case s.Active():
			active++
		}
	}
	switch {
	case len(d.Subs) == 0:
		return noSubs, 0
	case active == 0:
		return noActive, 0
	case d.TotalPEs() > lim.MaxPEs:
		return tooManyPEs, 0
	case d.TotalBW() > lim.MaxBW:
		return tooMuchBW, 0
	}
	return fits, 0
}

// Area returns the accelerator's silicon area in µm² under cost model cfg.
// bufDemand[i] is the largest buffer requirement among layers mapped to
// sub-accelerator i (zero for unused sub-accelerators); the slice may be nil
// when no mapping exists yet, in which case a nominal working buffer is
// assumed so that area remains comparable across designs.
func (d Design) Area(cfg maestro.Config, bufDemand []int64) float64 {
	const nominalBuffer = 64 << 10
	total := 0.0
	for i, s := range d.Subs {
		if !s.Active() {
			continue
		}
		buf := int64(nominalBuffer)
		if bufDemand != nil && i < len(bufDemand) && bufDemand[i] > 0 {
			buf = bufDemand[i]
		}
		total += cfg.SubAccelArea(s.PEs, s.BW, buf)
	}
	return total
}

// Fingerprint returns a compact canonical identity string for the design,
// used as the hardware-evaluation cache key (internal/evalcache). Two designs
// fingerprint equally iff they are semantically identical to the evaluator:
// every sub-accelerator's ⟨dataflow, PEs, bandwidth⟩ tuple matches in order.
// Inactive sub-accelerators still contribute (their position affects the HAP
// buffer-demand layout), so the encoding is position-exact rather than
// active-set normalized.
func (d Design) Fingerprint() string {
	var b strings.Builder
	// 16 bytes per tuple is enough for "dla:4096:64;" with slack.
	b.Grow(16 * len(d.Subs))
	var buf [20]byte
	for i, s := range d.Subs {
		if i > 0 {
			b.WriteByte(';')
		}
		b.WriteString(s.DF.String())
		b.WriteByte(':')
		b.Write(strconv.AppendInt(buf[:0], int64(s.PEs), 10))
		b.WriteByte(':')
		b.Write(strconv.AppendInt(buf[:0], int64(s.BW), 10))
	}
	return b.String()
}

// String renders all sub-accelerator tuples.
func (d Design) String() string {
	parts := make([]string, len(d.Subs))
	for i, s := range d.Subs {
		parts[i] = s.String()
	}
	return strings.Join(parts, " ")
}

// Space is the hardware design space the controller samples from: per
// sub-accelerator, the dataflow template choices and the quantized PE and
// bandwidth allocations (Fig. 5, right segments).
type Space struct {
	Limits    Limits
	NumSubs   int
	Styles    []dataflow.Style
	PEOptions []int // per-sub-accelerator PE allocation choices
	BWOptions []int // per-sub-accelerator bandwidth choices, GB/s
}

// DefaultSpace returns the paper's hardware search space: two
// sub-accelerators, the {shi, dla, rs} template set, PE allocations in steps
// of 32 (matching the granularity of the solutions reported in Tables I–II),
// and bandwidth shares in steps of 8 GB/s.
func DefaultSpace() Space {
	lim := DefaultLimits()
	var pes []int
	for p := 0; p <= lim.MaxPEs; p += 32 {
		pes = append(pes, p)
	}
	var bws []int
	for b := 8; b <= lim.MaxBW; b += 8 {
		bws = append(bws, b)
	}
	return Space{
		Limits:    lim,
		NumSubs:   2,
		Styles:    append([]dataflow.Style(nil), dataflow.AllStyles...),
		PEOptions: pes,
		BWOptions: bws,
	}
}

// Feasible reports whether the design satisfies this space's resource
// limits: Validate's conditions, without building an error.
func (s Space) Feasible(d Design) bool {
	v, _ := d.check(s.Limits)
	return v == fits
}

// Random samples a resource-feasible design uniformly by rejection: each
// draw picks every sub-accelerator's dataflow, PE allocation and bandwidth
// share in that order until the design fits the limits.
func (s Space) Random(rng *stats.RNG) Design {
	for {
		subs := make([]SubAccel, s.NumSubs)
		for i := range subs {
			subs[i] = SubAccel{
				DF:  s.Styles[rng.Intn(len(s.Styles))],
				PEs: s.PEOptions[rng.Intn(len(s.PEOptions))],
				BW:  s.BWOptions[rng.Intn(len(s.BWOptions))],
			}
		}
		if d := NewDesign(subs...); s.Feasible(d) {
			return d
		}
	}
}
