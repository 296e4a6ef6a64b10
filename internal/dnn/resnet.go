package dnn

import "fmt"

// ResBlock configures one residual block of a ResNet-9-style backbone:
// FN output filters and SK additional (residual) convolution layers.
// SK=0 degenerates the block to a single downsampling convolution, matching
// the paper's hyperparameter SK_i ∈ ⟨0,1,2⟩.
type ResBlock struct {
	FN int // filter count of every conv in the block
	SK int // number of residual 3x3 convs after the downsampling conv
}

// ResNetConfig fully determines a ResNet-9-style architecture in the paper's
// search space (Fig. 1 and Table II use the encoding
// ⟨FN0, FN1, SK1, FN2, SK2, FN3, SK3⟩; block 0 is a standard convolution).
type ResNetConfig struct {
	Name    string
	InputX  int // input map width
	InputY  int // input map height
	InputC  int // input channels (3 for RGB)
	Classes int
	FN0     int        // filters of the stem convolution (block 0)
	Blocks  []ResBlock // residual blocks, each followed by a 2x2 max-pool
}

// BuildResNet constructs the layer chain for cfg. Each block is a 3x3
// convolution followed by a 2x2 max-pool and SK residual 3x3 convolutions;
// the network ends with global average pooling and a fully-connected
// classifier, following the ResNet-9 recipe referenced by the paper [20].
func BuildResNet(cfg ResNetConfig) (*Network, error) {
	if cfg.FN0 <= 0 {
		return nil, fmt.Errorf("dnn: resnet %s: FN0 must be positive, got %d", cfg.Name, cfg.FN0)
	}
	if len(cfg.Blocks) == 0 {
		return nil, fmt.Errorf("dnn: resnet %s: needs at least one block", cfg.Name)
	}
	x, y, c := cfg.InputX, cfg.InputY, cfg.InputC
	n := &Network{Name: cfg.Name, Task: Classification}
	add := func(l Layer) {
		n.Layers = append(n.Layers, l)
		x, y, c = l.OutX(), l.OutY(), l.K
	}

	add(Layer{Name: "conv0", Op: Conv, K: cfg.FN0, C: c, R: 3, S: 3, X: x, Y: y, Stride: 1})
	for bi, b := range cfg.Blocks {
		if b.FN <= 0 {
			return nil, fmt.Errorf("dnn: resnet %s: block %d FN must be positive, got %d", cfg.Name, bi+1, b.FN)
		}
		if b.SK < 0 {
			return nil, fmt.Errorf("dnn: resnet %s: block %d SK must be non-negative, got %d", cfg.Name, bi+1, b.SK)
		}
		if x < 2 || y < 2 {
			return nil, fmt.Errorf("dnn: resnet %s: map %dx%d too small to pool at block %d", cfg.Name, x, y, bi+1)
		}
		add(Layer{Name: fmt.Sprintf("b%d_conv", bi+1), Op: Conv, K: b.FN, C: c, R: 3, S: 3, X: x, Y: y, Stride: 1})
		add(Layer{Name: fmt.Sprintf("b%d_pool", bi+1), Op: MaxPool, K: c, C: c, R: 2, S: 2, X: x, Y: y, Stride: 2})
		for s := 0; s < b.SK; s++ {
			add(Layer{Name: fmt.Sprintf("b%d_res%d", bi+1, s+1), Op: Conv, K: b.FN, C: c, R: 3, S: 3, X: x, Y: y, Stride: 1})
		}
	}
	add(Layer{Name: "gap", Op: GlobalAvgPool, K: c, C: c, R: 1, S: 1, X: x, Y: y, Stride: 1})
	add(Layer{Name: "fc", Op: FC, K: cfg.Classes, C: c, R: 1, S: 1, X: 1, Y: 1, Stride: 1})

	if err := n.Validate(); err != nil {
		return nil, err
	}
	n.sig = n.signature()
	return n, nil
}
