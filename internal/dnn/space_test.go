package dnn

import (
	"testing"
	"testing/quick"

	"nasaic/internal/stats"
)

func TestCIFARSpaceDecodesTableIIArchitectures(t *testing.T) {
	s := CIFARResNetSpace()
	// The NAS-optimal network from Table II: <32, 128, 2, 256, 2, 256, 2>.
	idx := func(d Decision, v int) int {
		for i, o := range d.Options {
			if o == v {
				return i
			}
		}
		t.Fatalf("option %d not in %s %v", v, d.Name, d.Options)
		return -1
	}
	vals := []int{32, 128, 2, 256, 2, 256, 2}
	choices := make([]int, len(vals))
	for i, v := range vals {
		choices[i] = idx(s.Decisions[i], v)
	}
	n, err := s.Decode(choices)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if err := n.Validate(); err != nil {
		t.Fatalf("network invalid: %v", err)
	}
	// conv0 + 3*(1 + SK) convs + fc = 1 + (3+3+3)... blocks have 1+2 convs each.
	if got, want := n.Depth(), 1+3*(1+2)+1; got != want {
		t.Errorf("Depth = %d, want %d", got, want)
	}
}

func TestSpaceSmallestLargest(t *testing.T) {
	for _, s := range []*Space{CIFARResNetSpace(), STLResNetSpace(), NucleiUNetSpace()} {
		small := s.MustDecode(s.Smallest())
		large := s.MustDecode(s.Largest())
		if small.TotalParams() >= large.TotalParams() {
			t.Errorf("%s: smallest params %d !< largest %d",
				s.Name, small.TotalParams(), large.TotalParams())
		}
		if small.TotalMACs() >= large.TotalMACs() {
			t.Errorf("%s: smallest MACs %d !< largest %d",
				s.Name, small.TotalMACs(), large.TotalMACs())
		}
	}
}

func TestSpaceValidateRejectsBadVectors(t *testing.T) {
	s := CIFARResNetSpace()
	if err := s.Validate([]int{0}); err == nil {
		t.Error("short vector accepted")
	}
	bad := s.Smallest()
	bad[0] = len(s.Decisions[0].Options)
	if err := s.Validate(bad); err == nil {
		t.Error("out-of-range index accepted")
	}
	if _, err := s.Decode(bad); err == nil {
		t.Error("Decode accepted out-of-range index")
	}
}

func TestSpaceSize(t *testing.T) {
	s := CIFARResNetSpace()
	want := int64(6 * 6 * 3 * 6 * 3 * 6 * 3)
	if got := s.Size(); got != want {
		t.Errorf("Size = %d, want %d", got, want)
	}
}

func TestUNetSpaceHeightControlsDepth(t *testing.T) {
	s := NucleiUNetSpace()
	c := s.Smallest() // height 1
	n1 := s.MustDecode(c)
	c[0] = 4 // height 5
	n5 := s.MustDecode(c)
	if n5.Depth() <= n1.Depth() {
		t.Errorf("height-5 depth %d should exceed height-1 depth %d", n5.Depth(), n1.Depth())
	}
	// Height-1 U-Net: enc convs x2 + out conv = 3 compute layers, no upconv.
	if got := n1.Depth(); got != 3 {
		t.Errorf("height-1 depth = %d, want 3", got)
	}
}

func TestUNetFilterOptionsFollowPaperScaling(t *testing.T) {
	s := NucleiUNetSpace()
	for i := 1; i <= 5; i++ {
		scale := 1 << (i - 1)
		want := []int{4 * scale, 8 * scale, 16 * scale}
		got := s.Decisions[i].Options
		if len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
			t.Errorf("level %d options = %v, want %v", i, got, want)
		}
	}
}

// Property: every random choice vector decodes into a structurally valid
// network for all three spaces.
func TestSpaceRandomAlwaysDecodes(t *testing.T) {
	rng := stats.NewRNG(7)
	for _, s := range []*Space{CIFARResNetSpace(), STLResNetSpace(), NucleiUNetSpace()} {
		s := s
		f := func(seed uint16) bool {
			_ = seed
			c := s.Random(rng)
			n, err := s.Decode(c)
			if err != nil {
				return false
			}
			for _, l := range n.Layers {
				if l.Validate() != nil {
					return false
				}
			}
			return n.TotalMACs() > 0
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
	}
}
