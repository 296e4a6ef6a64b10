package nn

import (
	"fmt"
	"math"

	"nasaic/internal/stats"
)

// Param is a trainable tensor paired with its gradient accumulator.
type Param struct {
	Name string
	Val  *Mat
	Grad *Mat
}

// NewParam returns a zero-initialized parameter.
func NewParam(name string, r, c int) *Param {
	return &Param{Name: name, Val: NewMat(r, c), Grad: NewMat(r, c)}
}

// InitXavier fills the parameter with Xavier/Glorot-uniform values.
func (p *Param) InitXavier(rng *stats.RNG) {
	limit := math.Sqrt(6.0 / float64(p.Val.R+p.Val.C))
	for i := range p.Val.W {
		p.Val.W[i] = (2*rng.Float64() - 1) * limit
	}
}

// ZeroGrad clears the gradient accumulator.
func (p *Param) ZeroGrad() { p.Grad.Zero() }

// GradNorm returns the L2 norm of the gradient.
func (p *Param) GradNorm() float64 {
	var s float64
	for _, g := range p.Grad.W {
		s += g * g
	}
	return math.Sqrt(s)
}

// RMSProp implements the optimizer the paper trains the controller with
// (§V-A: RMSProp, initial learning rate 0.99, exponential decay 0.5 every 50
// steps).
//
// The squared-gradient state lives in one flattened arena spanning every
// parameter (ROADMAP hot spot: the per-parameter serial walk over a map of
// slices), so Step is a single fused pass over contiguous memory with the
// per-parameter offsets resolved once and cached for the common case of an
// unchanged parameter list. The arithmetic — including its operation order —
// is unchanged, so updates are bit-identical to the pre-arena optimizer
// (enforced by the differential test in param_test.go).
type RMSProp struct {
	LR           float64 // current learning rate
	Decay        float64 // squared-gradient averaging factor
	Eps          float64
	ClipNorm     float64 // per-parameter gradient clipping (0 disables)
	LRDecay      float64 // multiplicative decay applied every LRDecaySteps
	LRDecaySteps int

	steps int
	// arena holds every parameter's squared-gradient average back to back;
	// offsets maps a parameter to its segment start. last/lastOffs cache
	// the offsets of the previous Step's parameter list, skipping the map
	// entirely while the caller keeps passing the same list.
	arena    []float64
	offsets  map[*Param]int
	last     []*Param
	lastOffs []int
}

// NewRMSProp returns an optimizer with the paper's hyperparameters.
func NewRMSProp() *RMSProp {
	return &RMSProp{
		LR:           0.99,
		Decay:        0.9,
		Eps:          1e-8,
		ClipNorm:     5.0,
		LRDecay:      0.5,
		LRDecaySteps: 50,
		offsets:      map[*Param]int{},
	}
}

// sameParams reports whether params is element-wise identical to the cached
// list of the previous Step.
func (o *RMSProp) sameParams(params []*Param) bool {
	if len(params) != len(o.last) {
		return false
	}
	for i, p := range params {
		if o.last[i] != p {
			return false
		}
	}
	return true
}

// resolveOffsets returns each parameter's arena offset, extending the arena
// once, by the total length of the parameters seen for the first time.
func (o *RMSProp) resolveOffsets(params []*Param) []int {
	if o.sameParams(params) {
		return o.lastOffs
	}
	offs := make([]int, len(params))
	end := len(o.arena)
	for i, p := range params {
		off, ok := o.offsets[p]
		if !ok {
			off = end
			end += len(p.Val.W)
			o.offsets[p] = off
		}
		offs[i] = off
	}
	o.arena = append(o.arena, make([]float64, end-len(o.arena))...)
	o.last = append([]*Param(nil), params...)
	o.lastOffs = offs
	return offs
}

// Step applies one RMSProp update to every parameter and advances the
// learning-rate schedule: one fused pass per parameter segment of the
// flattened arena (clip-norm scan over the gradient, then the element-wise
// second-moment and value update in the original operation order).
func (o *RMSProp) Step(params []*Param) {
	offs := o.resolveOffsets(params)
	for pi, p := range params {
		sq := o.arena[offs[pi] : offs[pi]+len(p.Val.W)]
		scale := 1.0
		if o.ClipNorm > 0 {
			if n := p.GradNorm(); n > o.ClipNorm {
				scale = o.ClipNorm / n
			}
		}
		val, grad := p.Val.W, p.Grad.W
		for i, g := range grad {
			g *= scale
			sq[i] = o.Decay*sq[i] + (1-o.Decay)*g*g
			val[i] -= o.LR * g / (math.Sqrt(sq[i]) + o.Eps)
		}
	}
	o.steps++
	if o.LRDecaySteps > 0 && o.steps%o.LRDecaySteps == 0 {
		o.LR *= o.LRDecay
	}
}

// Steps returns the number of optimizer steps taken.
func (o *RMSProp) Steps() int { return o.steps }

// checkFinite panics when a parameter contains NaN/Inf — a guard against
// silent training divergence.
func checkFinite(p *Param) {
	for _, v := range p.Val.W {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			panic(fmt.Sprintf("nn: parameter %s diverged", p.Name))
		}
	}
}

// CheckFinite validates all parameters.
func CheckFinite(params []*Param) {
	for _, p := range params {
		checkFinite(p)
	}
}
