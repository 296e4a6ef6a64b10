package dnn

import (
	"fmt"
	"strings"
	"testing"

	"nasaic/internal/stats"
)

func smallResNet(t *testing.T) *Network {
	t.Helper()
	n, err := BuildResNet(ResNetConfig{
		Name: "test", InputX: 32, InputY: 32, InputC: 3, Classes: 10,
		FN0:    8,
		Blocks: []ResBlock{{FN: 16, SK: 1}, {FN: 32, SK: 0}, {FN: 64, SK: 2}},
	})
	if err != nil {
		t.Fatalf("BuildResNet: %v", err)
	}
	return n
}

func TestNetworkValidateChain(t *testing.T) {
	n := smallResNet(t)
	if err := n.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	// Break the chain and expect failure.
	broken := *n
	broken.Layers = append([]Layer(nil), n.Layers...)
	broken.Layers[1].C = 999
	if err := broken.Validate(); err == nil {
		t.Error("expected chain validation failure after corrupting input channels")
	}
}

func TestNetworkAggregates(t *testing.T) {
	n := smallResNet(t)
	var wantMACs, wantParams int64
	depth := 0
	for _, l := range n.Layers {
		wantMACs += l.MACs()
		wantParams += l.Params()
		if l.Op.Compute() {
			depth++
		}
	}
	if n.TotalMACs() != wantMACs {
		t.Errorf("TotalMACs = %d, want %d", n.TotalMACs(), wantMACs)
	}
	if n.TotalParams() != wantParams {
		t.Errorf("TotalParams = %d, want %d", n.TotalParams(), wantParams)
	}
	if n.Depth() != depth {
		t.Errorf("Depth = %d, want %d", n.Depth(), depth)
	}
	if n.MaxWidth() != 64 {
		t.Errorf("MaxWidth = %d, want 64", n.MaxWidth())
	}
	// conv0 + (1 block conv+1 res) + (1) + (1+2 res) + fc = 1+2+1+3+1 = 8
	if got := len(n.ComputeLayers()); got != 8 {
		t.Errorf("ComputeLayers = %d, want 8", got)
	}
}

func TestNetworkSignatureStable(t *testing.T) {
	a := smallResNet(t)
	b := smallResNet(t)
	if a.Signature() != b.Signature() {
		t.Error("identical configs must produce identical signatures")
	}
	c, err := BuildResNet(ResNetConfig{
		Name: "test", InputX: 32, InputY: 32, InputC: 3, Classes: 10,
		FN0:    8,
		Blocks: []ResBlock{{FN: 16, SK: 1}, {FN: 32, SK: 0}, {FN: 128, SK: 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if a.Signature() == c.Signature() {
		t.Error("different configs must produce different signatures")
	}
}

func TestNetworkString(t *testing.T) {
	n := smallResNet(t)
	s := n.String()
	for _, want := range []string{"test", "conv0", "fc", "classification"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q:\n%s", want, s)
		}
	}
}

func TestEmptyNetworkInvalid(t *testing.T) {
	n := &Network{Name: "empty"}
	if err := n.Validate(); err == nil {
		t.Error("empty network must fail validation")
	}
}

// signatureRef is the fmt-built reference of Signature: persisted memo keys
// (-cachedir snapshots, accuracy-memo keys) depend on these exact bytes.
func signatureRef(n *Network) string {
	var b strings.Builder
	b.WriteString(n.Name)
	for _, l := range n.Layers {
		fmt.Fprintf(&b, "|%s:%d:%d:%d:%d:%d:%d:%d", l.Op, l.K, l.C, l.R, l.S, l.X, l.Y, l.Stride)
	}
	return b.String()
}

// TestSignatureMatchesReference checks the cached signature of decoded
// networks, and the signature a struct-literal copy computes on demand,
// against the fmt-built reference.
func TestSignatureMatchesReference(t *testing.T) {
	rng := stats.NewRNG(7)
	for _, s := range []*Space{CIFARResNetSpace(), STLResNetSpace(), NucleiUNetSpace()} {
		vecs := map[string][]int{"smallest": s.Smallest(), "largest": s.Largest()}
		for i := 0; i < 5; i++ {
			vecs[fmt.Sprintf("random%d", i)] = s.Random(rng)
		}
		for name, v := range vecs {
			n := s.MustDecode(v)
			want := signatureRef(n)
			if got := n.Signature(); got != want {
				t.Errorf("%s %s: cached signature\n%q\nwant\n%q", s.Name, name, got, want)
			}
			lit := &Network{Name: n.Name, Task: n.Task, Layers: n.Layers}
			if got := lit.Signature(); got != want {
				t.Errorf("%s %s: computed signature\n%q\nwant\n%q", s.Name, name, got, want)
			}
		}
	}
}

// FuzzSignatureMatchesReference checks Signature against the fmt reference
// for arbitrary names, ops and layer dimensions, including zero, negative
// and unknown-op layers no builder accepts.
func FuzzSignatureMatchesReference(f *testing.F) {
	f.Add("resnet9-cifar10", int(Conv), 64, 32, 3, 3, 16, 16, 1)
	f.Add("", int(FC), 10, 256, 1, 1, 1, 1, 1)
	f.Add("n|x:1", int(MaxPool), 0, 0, 0, 0, 0, 0, 0)
	f.Add("neg", -1, -5, -1<<40, 2, -3, 7, -128, -2)
	f.Add("unknown", 99, 1, 2, 3, 4, 5, 6, 7)
	f.Fuzz(func(t *testing.T, name string, op, k, c, r, s, x, y, stride int) {
		n := &Network{Name: name, Layers: []Layer{
			{Name: "l0", Op: Op(op), K: k, C: c, R: r, S: s, X: x, Y: y, Stride: stride},
			{Name: "l1", Op: UpConv, K: stride, C: k, R: 2, S: 2, X: y, Y: x, Stride: 1},
		}}
		if got, want := n.Signature(), signatureRef(n); got != want {
			t.Fatalf("signature %q, reference %q", got, want)
		}
	})
}
