package accel

import (
	"strings"
	"testing"

	"nasaic/internal/dataflow"
	"nasaic/internal/maestro"
)

func TestDesignTotalsAndValidate(t *testing.T) {
	lim := DefaultLimits()
	d := NewDesign(
		SubAccel{DF: dataflow.NVDLA, PEs: 2112, BW: 48},
		SubAccel{DF: dataflow.Shidiannao, PEs: 1984, BW: 16},
	)
	if d.TotalPEs() != 4096 {
		t.Errorf("TotalPEs = %d, want 4096", d.TotalPEs())
	}
	if d.TotalBW() != 64 {
		t.Errorf("TotalBW = %d, want 64", d.TotalBW())
	}
	if err := d.Validate(lim); err != nil {
		t.Errorf("paper's NAS→ASIC W1 design should validate: %v", err)
	}
	if !d.Heterogeneous() {
		t.Error("dla+shi design should be heterogeneous")
	}
}

// Validate reports the first broken resource condition, and Feasible
// rejects the same designs without allocating.
func TestValidateRejects(t *testing.T) {
	s := DefaultSpace()
	cases := []struct {
		name, want string
		d          Design
	}{
		{"empty", "accel: design has no sub-accelerators", Design{}},
		{"over PEs", "accel: total PEs 4097 exceed limit 4096",
			NewDesign(SubAccel{DF: dataflow.NVDLA, PEs: 4097, BW: 32})},
		{"over BW", "accel: total bandwidth 80 GB/s exceeds limit 64", NewDesign(
			SubAccel{DF: dataflow.NVDLA, PEs: 1024, BW: 40},
			SubAccel{DF: dataflow.Shidiannao, PEs: 1024, BW: 40})},
		{"negative PEs", "accel: sub-accelerator 1 has negative PEs -1", NewDesign(
			SubAccel{DF: dataflow.NVDLA, PEs: 64, BW: 8},
			SubAccel{DF: dataflow.NVDLA, PEs: -1, BW: 8})},
		{"active without bw", "accel: active sub-accelerator 0 has no bandwidth", NewDesign(
			SubAccel{DF: dataflow.NVDLA, PEs: 64, BW: 0},
			SubAccel{DF: dataflow.NVDLA, PEs: -1, BW: 8})},
		{"all inactive", "accel: design has no active sub-accelerator",
			NewDesign(SubAccel{DF: dataflow.NVDLA, PEs: 0, BW: 8})},
	}
	for _, c := range cases {
		err := c.d.Validate(s.Limits)
		if err == nil || err.Error() != c.want {
			t.Errorf("%s: Validate = %v, want %q", c.name, err, c.want)
		}
		if s.Feasible(c.d) {
			t.Errorf("%s: Feasible accepted a design Validate rejects", c.name)
		}
		if n := testing.AllocsPerRun(10, func() { s.Feasible(c.d) }); n != 0 {
			t.Errorf("%s: Feasible allocates %.0f times, want 0", c.name, n)
		}
	}
}

func TestDegenerateDesigns(t *testing.T) {
	// One sub-accelerator with zero PEs degenerates to a single accelerator
	// (§V-A); it must not count toward bandwidth and must not be "active".
	d := NewDesign(
		SubAccel{DF: dataflow.NVDLA, PEs: 3104, BW: 24},
		SubAccel{DF: dataflow.Shidiannao, PEs: 0, BW: 40},
	)
	if err := d.Validate(DefaultLimits()); err != nil {
		t.Fatalf("degenerate single design should validate: %v", err)
	}
	if got := d.Active(); len(got) != 1 || got[0] != 0 {
		t.Errorf("Active = %v, want [0]", got)
	}
	if d.Heterogeneous() {
		t.Error("single active sub-accelerator is not heterogeneous")
	}
	if d.TotalBW() != 24 {
		t.Errorf("inactive sub-accelerator bandwidth must not count, got %d", d.TotalBW())
	}

	homo := NewDesign(
		SubAccel{DF: dataflow.NVDLA, PEs: 1408, BW: 32},
		SubAccel{DF: dataflow.NVDLA, PEs: 1408, BW: 32},
	)
	if homo.Heterogeneous() {
		t.Error("two dla sub-accelerators are homogeneous")
	}
}

func TestArea(t *testing.T) {
	cfg := maestro.DefaultConfig()
	d := NewDesign(
		SubAccel{DF: dataflow.NVDLA, PEs: 1024, BW: 32},
		SubAccel{DF: dataflow.Shidiannao, PEs: 0, BW: 8},
	)
	a := d.Area(cfg, nil)
	want := cfg.SubAccelArea(1024, 32, 64<<10)
	if a != want {
		t.Errorf("area = %f, want %f (inactive sub must be free)", a, want)
	}
	a2 := d.Area(cfg, []int64{1 << 20, 0})
	if a2 <= a {
		t.Error("larger buffer demand must increase area")
	}
}

func TestDefaultSpace(t *testing.T) {
	s := DefaultSpace()
	if s.NumSubs != 2 {
		t.Errorf("NumSubs = %d, want 2", s.NumSubs)
	}
	if len(s.Styles) != 3 {
		t.Errorf("want 3 dataflow styles, got %d", len(s.Styles))
	}
	// PE options include the values reported in the paper's tables.
	has := func(opts []int, v int) bool {
		for _, o := range opts {
			if o == v {
				return true
			}
		}
		return false
	}
	for _, v := range []int{0, 576, 1152, 1760, 1792, 2112, 3104, 4096} {
		if !has(s.PEOptions, v) {
			t.Errorf("PE options missing paper value %d", v)
		}
	}
	for _, v := range []int{8, 16, 24, 32, 40, 48, 56, 64} {
		if !has(s.BWOptions, v) {
			t.Errorf("BW options missing %d", v)
		}
	}
	ok := NewDesign(
		SubAccel{DF: dataflow.NVDLA, PEs: 2112, BW: 40},
		SubAccel{DF: dataflow.Shidiannao, PEs: 1184, BW: 24})
	if !s.Feasible(ok) {
		t.Error("paper's NASAIC W2 design should be feasible")
	}
}

func TestStrings(t *testing.T) {
	s := SubAccel{DF: dataflow.NVDLA, PEs: 576, BW: 56}
	if got, want := s.String(), "<dla, 576, 56>"; got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
	d := NewDesign(s, SubAccel{DF: dataflow.Shidiannao, PEs: 1792, BW: 8})
	if !strings.Contains(d.String(), "<shi, 1792, 8>") {
		t.Errorf("design string missing sub-accelerator: %q", d.String())
	}
}

func TestFingerprint(t *testing.T) {
	d := NewDesign(
		SubAccel{DF: dataflow.NVDLA, PEs: 576, BW: 56},
		SubAccel{DF: dataflow.Shidiannao, PEs: 0, BW: 8})
	if got, want := d.Fingerprint(), "dla:576:56;shi:0:8"; got != want {
		t.Errorf("Fingerprint = %q, want %q", got, want)
	}

	cases := []struct {
		name string
		a, b Design
		same bool
	}{
		{
			"identical designs",
			NewDesign(SubAccel{DF: dataflow.NVDLA, PEs: 1024, BW: 32}),
			NewDesign(SubAccel{DF: dataflow.NVDLA, PEs: 1024, BW: 32}),
			true,
		},
		{
			"different dataflow",
			NewDesign(SubAccel{DF: dataflow.NVDLA, PEs: 1024, BW: 32}),
			NewDesign(SubAccel{DF: dataflow.RowStationary, PEs: 1024, BW: 32}),
			false,
		},
		{
			"different PEs",
			NewDesign(SubAccel{DF: dataflow.NVDLA, PEs: 1024, BW: 32}),
			NewDesign(SubAccel{DF: dataflow.NVDLA, PEs: 1056, BW: 32}),
			false,
		},
		{
			"sub-accelerator order matters",
			NewDesign(SubAccel{DF: dataflow.NVDLA, PEs: 1024, BW: 32},
				SubAccel{DF: dataflow.Shidiannao, PEs: 512, BW: 16}),
			NewDesign(SubAccel{DF: dataflow.Shidiannao, PEs: 512, BW: 16},
				SubAccel{DF: dataflow.NVDLA, PEs: 1024, BW: 32}),
			false,
		},
		{
			// "dla:12;..." vs "dla:1;2..." style ambiguity must not collide.
			"field boundaries are unambiguous",
			NewDesign(SubAccel{DF: dataflow.NVDLA, PEs: 12, BW: 1}),
			NewDesign(SubAccel{DF: dataflow.NVDLA, PEs: 1, BW: 21}),
			false,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fa, fb := tc.a.Fingerprint(), tc.b.Fingerprint()
			if (fa == fb) != tc.same {
				t.Errorf("Fingerprint equality = %v (%q vs %q), want %v", fa == fb, fa, fb, tc.same)
			}
		})
	}
}
