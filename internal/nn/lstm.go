package nn

import "math"

// LSTM is a single-layer LSTM cell. Gate layout within the stacked 4H
// dimension is [input; forget; cell candidate; output]. The cell holds only
// its parameters; every forward and backward buffer is the caller's.
type LSTM struct {
	InputSize, HiddenSize int
	Wx                    *Param // 4H × I
	Wh                    *Param // 4H × H
	B                     *Param // 4H × 1
}

// NewLSTM returns an LSTM with Xavier-initialized weights and a forget-gate
// bias of 1 (the standard trick to keep memory open early in training).
func NewLSTM(inputSize, hiddenSize int, init func(*Param)) *LSTM {
	l := &LSTM{
		InputSize:  inputSize,
		HiddenSize: hiddenSize,
		Wx:         NewParam("lstm.Wx", 4*hiddenSize, inputSize),
		Wh:         NewParam("lstm.Wh", 4*hiddenSize, hiddenSize),
		B:          NewParam("lstm.B", 4*hiddenSize, 1),
	}
	init(l.Wx)
	init(l.Wh)
	for i := hiddenSize; i < 2*hiddenSize; i++ {
		l.B.Val.W[i] = 1
	}
	return l
}

// Params returns the trainable parameters.
func (l *LSTM) Params() []*Param { return []*Param{l.Wx, l.Wh, l.B} }

func sigmoid(x float64) float64 { return 1 / (1 + math.Exp(-x)) }

// Linear is a fully-connected layer y = W·x + b.
type Linear struct {
	W *Param // out × in
	B *Param // out × 1
}

// NewLinear returns an initialized linear layer.
func NewLinear(name string, in, out int, init func(*Param)) *Linear {
	l := &Linear{
		W: NewParam(name+".W", out, in),
		B: NewParam(name+".B", out, 1),
	}
	init(l.W)
	return l
}

// Params returns the trainable parameters.
func (l *Linear) Params() []*Param { return []*Param{l.W, l.B} }

// AccumStepGrads adds one (sequence, step) contribution to the parameter
// gradients: W += dY·xᵀ then B += dY. BackwardBatchFlows leaves the
// parameter gradients alone; callers replay this per (sequence, step) in the
// order the gradient adds must follow.
func (l *Linear) AccumStepGrads(dY, x []float64) {
	l.W.Grad.AddOuter(dY, x)
	for i := range dY {
		l.B.Grad.W[i] += dY[i]
	}
}

// Softmax returns the softmax of logits (numerically stabilized).
func Softmax(logits []float64) []float64 {
	return SoftmaxInto(make([]float64, len(logits)), logits)
}

// SoftmaxInto computes the softmax of logits into out and returns it.
func SoftmaxInto(out, logits []float64) []float64 {
	if len(out) != len(logits) {
		panic("nn: SoftmaxInto length mismatch")
	}
	max := math.Inf(-1)
	for _, v := range logits {
		if v > max {
			max = v
		}
	}
	var sum float64
	for i, v := range logits {
		e := math.Exp(v - max)
		out[i] = e
		sum += e
	}
	for i := range out {
		out[i] /= sum
	}
	return out
}

// LogPGrad returns d(-log p[action])/d(logits) = softmax(logits) - onehot,
// the REINFORCE per-step logit gradient (before the advantage scaling).
func LogPGrad(logits []float64, action int) []float64 {
	g := Softmax(logits)
	g[action] -= 1
	return g
}

// Entropy returns the Shannon entropy of a probability vector in nats.
func Entropy(p []float64) float64 {
	var h float64
	for _, v := range p {
		if v > 0 {
			h -= v * math.Log(v)
		}
	}
	return h
}
