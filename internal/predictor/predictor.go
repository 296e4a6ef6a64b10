// Package predictor is this repository's substitute for the paper's
// training-and-validating path (§IV-③, "Training and validating"): a
// deterministic, capacity-based accuracy model for the three datasets the
// paper evaluates (CIFAR-10, STL-10, and the Nuclei segmentation set).
//
// The paper trains every sampled architecture from scratch on a GPU; the
// search, however, consumes only the resulting scalar quality. This model
// reproduces the property the co-exploration depends on — accuracy grows
// monotonically with capacity and saturates — and is pinned to the anchor
// points the paper reports (e.g. CIFAR-10 78.93% for the smallest network in
// the space and ~94.2% at saturation; see DESIGN.md §4). A small
// deterministic per-architecture perturbation stands in for training
// variance, so distinct architectures of similar capacity still rank
// distinctly and reruns are reproducible.
package predictor

import (
	"fmt"
	"math"

	"nasaic/internal/dnn"
	"nasaic/internal/stats"
)

// Dataset identifies one of the paper's evaluation datasets.
type Dataset int

// The datasets used by workloads W1–W3 (§V-A).
const (
	CIFAR10 Dataset = iota
	STL10
	Nuclei
)

// String returns the dataset name.
func (d Dataset) String() string {
	switch d {
	case CIFAR10:
		return "CIFAR-10"
	case STL10:
		return "STL-10"
	case Nuclei:
		return "Nuclei"
	default:
		return fmt.Sprintf("dataset(%d)", int(d))
	}
}

// Metric returns the quality metric name reported for the dataset.
func (d Dataset) Metric() string {
	if d == Nuclei {
		return "IoU"
	}
	return "accuracy"
}

// Task returns the task type the dataset belongs to.
func (d Dataset) Task() dnn.Task {
	if d == Nuclei {
		return dnn.Segmentation
	}
	return dnn.Classification
}

// anchors holds the per-dataset calibration: floor is the quality of the
// smallest architecture in the paper's search space, ceil the saturation
// quality, refParams/refMACs the smallest architecture's capacity, and k the
// saturation rate. noise is the half-width of the deterministic
// per-architecture perturbation.
type anchors struct {
	floor, ceil float64
	refParams   float64
	refMACs     float64
	k           float64
	p           float64
	noise       float64
}

// Calibration targets (quality in [0,1]):
//
//	CIFAR-10: 0.7893 (smallest) … 0.9111/0.9304 mid … 0.9417 (NAS best, Table II) … ~0.946
//	STL-10:   0.7157 (smallest) … 0.7650 (NAS best, Table I W2) … ~0.769
//	Nuclei:   0.642  (smallest) … 0.8374 (NAS best, Table I W1) … ~0.845
//
// A stretched exponential exp(−k·x^p) with p>1 fits both the paper's
// mid-size anchors (Table II accuracies near 91–92%) and the near-saturation
// NAS anchors, which a plain exponential cannot do simultaneously.
var anchorTable = map[Dataset]anchors{
	CIFAR10: {floor: 0.7893, ceil: 0.9460, refParams: 2.1e3, refMACs: 1.1e6, k: 0.00419, p: 3.0, noise: 0.0030},
	STL10:   {floor: 0.7157, ceil: 0.7690, refParams: 4.6e4, refMACs: 3.5e7, k: 0.0070, p: 3.0, noise: 0.0030},
	Nuclei:  {floor: 0.6420, ceil: 0.8450, refParams: 2.5e2, refMACs: 4.1e6, k: 0.0038, p: 3.0, noise: 0.0040},
}

// Accuracy returns the converged validation quality of network n trained on
// dataset d, in [0,1] (top-1 accuracy for classification, IoU for Nuclei).
// It is deterministic in the architecture.
func Accuracy(d Dataset, n *dnn.Network) float64 {
	a, ok := anchorTable[d]
	if !ok {
		panic(fmt.Sprintf("predictor: unknown dataset %d", int(d)))
	}
	p := float64(n.TotalParams())
	m := float64(n.TotalMACs())
	if p <= 0 || m <= 0 {
		panic(fmt.Sprintf("predictor: network %s has no capacity", n.Name))
	}
	// Capacity score: parameters and MACs both matter (width vs. work);
	// clamp at the reference so under-reference capacity pins to the floor.
	xp := math.Log2(math.Max(1, p/a.refParams))
	xm := math.Log2(math.Max(1, m/a.refMACs))
	x := 0.5*xp + 0.5*xm

	q := a.ceil - (a.ceil-a.floor)*math.Exp(-a.k*math.Pow(x, a.p))

	// Deterministic per-architecture perturbation (stand-in for training
	// variance), zero-mean over the space.
	jitter := (stats.HashUnit(d.String()+n.Signature()) - 0.5) * 2 * a.noise
	return stats.Clamp(q+jitter, 0, 1)
}
