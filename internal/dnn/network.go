package dnn

import (
	"fmt"
	"strconv"
	"strings"
)

// Task identifies the AI task a network solves. The metric differs per task
// (top-1 accuracy for classification, IoU for segmentation) but both are
// treated as a unitless quality in the reward.
type Task int

// Supported tasks.
const (
	Classification Task = iota
	Segmentation
)

// String returns the task name.
func (t Task) String() string {
	switch t {
	case Classification:
		return "classification"
	case Segmentation:
		return "segmentation"
	default:
		return fmt.Sprintf("task(%d)", int(t))
	}
}

// Network is a DNN architecture: an ordered dependency chain of layers.
// Layer i consumes the output of layer i-1; this matches the paper's mapper,
// which schedules chains of layers onto sub-accelerators.
//
// A network returned by BuildResNet, BuildUNet or a Space's Decode is
// read-only: it caches its Signature when built, and searches share one
// decoded network between every solution and cache key of the same
// architecture. Build a new network instead of editing one.
type Network struct {
	Name   string
	Task   Task
	Layers []Layer

	sig string // Signature, cached by the builders
}

// Validate checks every layer and the shape agreement between consecutive
// layers.
func (n *Network) Validate() error {
	if len(n.Layers) == 0 {
		return fmt.Errorf("dnn: network %s has no layers", n.Name)
	}
	for i, l := range n.Layers {
		if err := l.Validate(); err != nil {
			return fmt.Errorf("dnn: network %s layer %d: %w", n.Name, i, err)
		}
		if i == 0 {
			continue
		}
		prev := n.Layers[i-1]
		if l.Op == FC && prev.Op == GlobalAvgPool {
			if l.C != prev.K {
				return fmt.Errorf("dnn: network %s: fc %s input %d != gap output %d",
					n.Name, l.Name, l.C, prev.K)
			}
			continue
		}
		if l.C != prev.K {
			return fmt.Errorf("dnn: network %s: layer %s input channels %d != previous output %d",
				n.Name, l.Name, l.C, prev.K)
		}
		if l.X != prev.OutX() || l.Y != prev.OutY() {
			return fmt.Errorf("dnn: network %s: layer %s input map %dx%d != previous output %dx%d",
				n.Name, l.Name, l.X, l.Y, prev.OutX(), prev.OutY())
		}
	}
	return nil
}

// ComputeLayers returns the layers that carry MAC work, in execution order.
// These are the units the mapper assigns to sub-accelerators.
func (n *Network) ComputeLayers() []Layer {
	out := make([]Layer, 0, len(n.Layers))
	for _, l := range n.Layers {
		if l.Op.Compute() {
			out = append(out, l)
		}
	}
	return out
}

// TotalMACs returns the total multiply-accumulate count of one inference.
func (n *Network) TotalMACs() int64 {
	var sum int64
	for _, l := range n.Layers {
		sum += l.MACs()
	}
	return sum
}

// TotalParams returns the total parameter count.
func (n *Network) TotalParams() int64 {
	var sum int64
	for _, l := range n.Layers {
		sum += l.Params()
	}
	return sum
}

// Depth returns the number of compute layers.
func (n *Network) Depth() int {
	d := 0
	for _, l := range n.Layers {
		if l.Op.Compute() {
			d++
		}
	}
	return d
}

// Signature returns a stable, human-readable identity string for the
// architecture, used for memoization and for the predictor's deterministic
// perturbation: the name, then "|op:K:C:R:S:X:Y:Stride" per layer. Built
// networks return the string cached at build time; a network written as a
// struct literal computes it on every call.
func (n *Network) Signature() string {
	if n.sig != "" {
		return n.sig
	}
	return n.signature()
}

// signature computes Signature's bytes.
func (n *Network) signature() string {
	b := make([]byte, 0, len(n.Name)+32*len(n.Layers))
	b = append(b, n.Name...)
	for _, l := range n.Layers {
		b = append(b, '|')
		b = append(b, l.Op.String()...)
		for _, v := range [...]int{l.K, l.C, l.R, l.S, l.X, l.Y, l.Stride} {
			b = append(b, ':')
			b = strconv.AppendInt(b, int64(v), 10)
		}
	}
	return string(b)
}

// String renders a compact multi-line description.
func (n *Network) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (%s, %d layers, %.2fM params, %.1fM MACs)\n",
		n.Name, n.Task, len(n.Layers),
		float64(n.TotalParams())/1e6, float64(n.TotalMACs())/1e6)
	for _, l := range n.Layers {
		fmt.Fprintf(&b, "  %s\n", l.String())
	}
	return b.String()
}
