package predictor

import (
	"math"
	"testing"
	"testing/quick"

	"nasaic/internal/dnn"
	"nasaic/internal/stats"
)

func TestDatasetMeta(t *testing.T) {
	if CIFAR10.String() != "CIFAR-10" || STL10.String() != "STL-10" || Nuclei.String() != "Nuclei" {
		t.Error("dataset names wrong")
	}
	if CIFAR10.Metric() != "accuracy" || Nuclei.Metric() != "IoU" {
		t.Error("metrics wrong")
	}
	if CIFAR10.Task() != dnn.Classification || Nuclei.Task() != dnn.Segmentation {
		t.Error("tasks wrong")
	}
}

// The calibration anchors from the paper: the smallest network in each space
// must land at the reported lower bound, and the largest near (at or below)
// the ceiling.
func TestCalibrationAnchors(t *testing.T) {
	cases := []struct {
		ds          Dataset
		space       *dnn.Space
		floor, ceil float64
	}{
		{CIFAR10, dnn.CIFARResNetSpace(), 0.7893, 0.9460},
		{STL10, dnn.STLResNetSpace(), 0.7157, 0.7690},
		{Nuclei, dnn.NucleiUNetSpace(), 0.6420, 0.8450},
	}
	for _, c := range cases {
		small := c.space.MustDecode(c.space.Smallest())
		large := c.space.MustDecode(c.space.Largest())
		qs := Accuracy(c.ds, small)
		ql := Accuracy(c.ds, large)
		if math.Abs(qs-c.floor) > 0.008 {
			t.Errorf("%s smallest accuracy %.4f, want ~%.4f", c.ds, qs, c.floor)
		}
		if ql > c.ceil || ql < c.ceil-0.015 {
			t.Errorf("%s largest accuracy %.4f, want just below ceiling %.4f", c.ds, ql, c.ceil)
		}
		if qs >= ql {
			t.Errorf("%s smallest %.4f should be below largest %.4f", c.ds, qs, ql)
		}
	}
}

// The paper's NAS-optimal CIFAR-10 network <32,128,2,256,2,256,2> reaches
// 94.17%; our saturating model must put it within about half a point.
func TestNASBestCIFARAnchor(t *testing.T) {
	n, err := dnn.BuildResNet(dnn.ResNetConfig{
		Name: "resnet9-cifar10", InputX: 32, InputY: 32, InputC: 3, Classes: 10,
		FN0:    32,
		Blocks: []dnn.ResBlock{{FN: 128, SK: 2}, {FN: 256, SK: 2}, {FN: 256, SK: 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	q := Accuracy(CIFAR10, n)
	if math.Abs(q-0.9417) > 0.006 {
		t.Errorf("NAS-best CIFAR-10 accuracy %.4f, want ~0.9417", q)
	}
}

func TestAccuracyDeterministic(t *testing.T) {
	s := dnn.CIFARResNetSpace()
	n := s.MustDecode([]int{2, 3, 1, 4, 1, 4, 2})
	if Accuracy(CIFAR10, n) != Accuracy(CIFAR10, s.MustDecode([]int{2, 3, 1, 4, 1, 4, 2})) {
		t.Error("accuracy must be deterministic in the architecture")
	}
	// Dataset matters: the same backbone scores differently per dataset.
	if Accuracy(CIFAR10, n) == Accuracy(STL10, n) {
		t.Error("different datasets should not coincide exactly")
	}
}

// Property: accuracy is monotone (up to jitter) in a pure width scaling.
func TestAccuracyMonotoneInWidth(t *testing.T) {
	build := func(fn int) *dnn.Network {
		n, err := dnn.BuildResNet(dnn.ResNetConfig{
			Name: "m", InputX: 32, InputY: 32, InputC: 3, Classes: 10,
			FN0: fn, Blocks: []dnn.ResBlock{{FN: fn, SK: 1}, {FN: fn, SK: 1}, {FN: fn, SK: 1}},
		})
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	prev := -1.0
	for _, fn := range []int{8, 16, 32, 64, 128, 256} {
		q := Accuracy(CIFAR10, build(fn))
		if q < prev-0.006 { // allow jitter half-width
			t.Errorf("FN=%d: accuracy %.4f dropped below previous %.4f", fn, q, prev)
		}
		prev = q
	}
}

// Property: accuracy stays in [0,1] for arbitrary space points.
func TestAccuracyBounded(t *testing.T) {
	rng := stats.NewRNG(3)
	spaces := []struct {
		ds Dataset
		sp *dnn.Space
	}{
		{CIFAR10, dnn.CIFARResNetSpace()},
		{STL10, dnn.STLResNetSpace()},
		{Nuclei, dnn.NucleiUNetSpace()},
	}
	f := func(_ uint8) bool {
		c := spaces[rng.Intn(len(spaces))]
		n := c.sp.MustDecode(c.sp.Random(rng))
		q := Accuracy(c.ds, n)
		return q >= 0 && q <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}
