package dnn

import "fmt"

// UNetConfig determines a U-Net architecture in the paper's segmentation
// search space (§V-A): Height resolution levels (1–5) and a filter count per
// level, where the paper's per-level options are {4, 8, 16}·2^(i-1).
type UNetConfig struct {
	Name   string
	InputX int
	InputY int
	InputC int
	OutC   int   // output channels (1 for binary nuclei masks)
	FN     []int // filters per level; len(FN) == Height
}

// Height returns the number of resolution levels.
func (c UNetConfig) Height() int { return len(c.FN) }

// BuildUNet constructs the U-Net layer chain: an encoder of Height levels
// (two 3x3 convolutions per level, 2x2 max-pool between levels), a symmetric
// decoder (2x2 up-convolution, then two 3x3 convolutions over the
// concatenated skip tensor), and a final 1x1 output convolution [26].
func BuildUNet(cfg UNetConfig) (*Network, error) {
	h := cfg.Height()
	if h < 1 {
		return nil, fmt.Errorf("dnn: unet %s: height must be >= 1", cfg.Name)
	}
	for i, fn := range cfg.FN {
		if fn <= 0 {
			return nil, fmt.Errorf("dnn: unet %s: level %d FN must be positive, got %d", cfg.Name, i+1, fn)
		}
	}
	if cfg.InputX>>(h-1) < 1 || cfg.InputY>>(h-1) < 1 {
		return nil, fmt.Errorf("dnn: unet %s: input %dx%d too small for height %d",
			cfg.Name, cfg.InputX, cfg.InputY, h)
	}

	x, y, c := cfg.InputX, cfg.InputY, cfg.InputC
	n := &Network{Name: cfg.Name, Task: Segmentation}
	add := func(l Layer) {
		n.Layers = append(n.Layers, l)
		x, y, c = l.OutX(), l.OutY(), l.K
	}

	// Encoder (the deepest level acts as the bottleneck).
	for i := 0; i < h; i++ {
		fn := cfg.FN[i]
		add(Layer{Name: fmt.Sprintf("enc%d_conv1", i+1), Op: Conv, K: fn, C: c, R: 3, S: 3, X: x, Y: y, Stride: 1})
		add(Layer{Name: fmt.Sprintf("enc%d_conv2", i+1), Op: Conv, K: fn, C: c, R: 3, S: 3, X: x, Y: y, Stride: 1})
		if i < h-1 {
			add(Layer{Name: fmt.Sprintf("enc%d_pool", i+1), Op: MaxPool, K: c, C: c, R: 2, S: 2, X: x, Y: y, Stride: 2})
		}
	}
	// Decoder. After the up-convolution to level i's filter count, the skip
	// concatenation doubles the input channels of the first decoder conv.
	for i := h - 2; i >= 0; i-- {
		fn := cfg.FN[i]
		add(Layer{Name: fmt.Sprintf("dec%d_up", i+1), Op: UpConv, K: fn, C: c, R: 2, S: 2, X: x, Y: y, Stride: 1})
		// Model the concatenated tensor by widening the conv input channels.
		n.Layers = append(n.Layers, Layer{
			Name: fmt.Sprintf("dec%d_conv1", i+1), Op: Conv,
			K: fn, C: 2 * fn, R: 3, S: 3, X: x, Y: y, Stride: 1,
		})
		c = fn
		add(Layer{Name: fmt.Sprintf("dec%d_conv2", i+1), Op: Conv, K: fn, C: c, R: 3, S: 3, X: x, Y: y, Stride: 1})
	}
	add(Layer{Name: "out_conv", Op: Conv, K: cfg.OutC, C: c, R: 1, S: 1, X: x, Y: y, Stride: 1})

	// The decoder concatenation intentionally breaks strict chain channel
	// agreement, so validate layers individually rather than as a chain.
	for i, l := range n.Layers {
		if err := l.Validate(); err != nil {
			return nil, fmt.Errorf("dnn: unet %s layer %d: %w", cfg.Name, i, err)
		}
	}
	n.sig = n.signature()
	return n, nil
}
