package nn

import (
	"fmt"
	"math/rand"

	"repro/internal/parallel"
	"repro/internal/tensor"
)

// TopologyConfig parameterizes the CosmoFlow network builder.
type TopologyConfig struct {
	// InputDim is the voxel edge length of the input sub-volume: 128 in the
	// paper (§III-A); smaller powers of two give scaled-down networks with
	// identical structure for laptop-scale runs.
	InputDim int
	// InputChannels is the number of input channels: 1 in the paper, one
	// per redshift snapshot in the §VII-B multi-snapshot extension. Zero
	// means 1.
	InputChannels int
	// BaseChannels is the output channel count of the first convolution.
	// The paper uses 16 so every layer's channels are multiples of the
	// AVX512 SIMD width (§III-A); smaller test networks may reduce it.
	BaseChannels int
	// LeakyAlpha is the negative slope of every activation; 0 selects the
	// default.
	LeakyAlpha float32
	// Seed drives the deterministic He weight initialization.
	Seed int64
	// Pool supplies intra-node threading; nil uses parallel.Default.
	Pool *parallel.Pool
}

// PaperTopology returns the full-size configuration of §III-A: 128³ input,
// 16 base channels.
func PaperTopology() TopologyConfig {
	return TopologyConfig{InputDim: 128, BaseChannels: 16, Seed: 1}
}

// Validate checks the configuration.
func (c TopologyConfig) Validate() error {
	if c.InputDim < 4 || c.InputDim&(c.InputDim-1) != 0 {
		return fmt.Errorf("nn: InputDim %d must be a power of two >= 4", c.InputDim)
	}
	if c.BaseChannels < 1 {
		return fmt.Errorf("nn: BaseChannels %d must be positive", c.BaseChannels)
	}
	return nil
}

// BuildCosmoFlow constructs the CosmoFlow network topology (§III-A, Fig. 2):
// seven 3³ convolution layers with channel counts doubling up to 16× the
// base, three stride-2 average-pooling stages after the first three
// convolutions, two stride-2 convolutions continuing the spatial reduction,
// and three fully-connected layers ending in the three predicted
// cosmological parameters. Every convolution and FC layer is followed by a
// leaky ReLU, matching the paper; batch-norm is absent, as the paper removed
// it for scaling efficiency. The parameter gradients are views into one
// flat buffer (Grads), so the gradient allreduce needs no copy.
func BuildCosmoFlow(cfg TopologyConfig) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	pool := cfg.Pool
	if pool == nil {
		pool = parallel.Default
	}
	b := cfg.BaseChannels
	alpha := cfg.LeakyAlpha
	inC := cfg.InputChannels
	if inC < 1 {
		inC = 1
	}

	net := &Network{InputDim: cfg.InputDim, InputChannels: inC}
	add := func(l Layer) { net.Layers = append(net.Layers, l) }

	// Convolution stack. Channel progression 1→b→2b→4b→8b→16b→16b→16b; the
	// paper's b=16 yields 16→32→64→128→256→256→256.
	type convSpec struct {
		name     string
		in, out  int
		stride   int
		poolNext bool
	}
	specs := []convSpec{
		{"conv1", inC, b, 1, true},
		{"conv2", b, 2 * b, 1, true},
		{"conv3", 2 * b, 4 * b, 1, true},
		{"conv4", 4 * b, 8 * b, 2, false},
		{"conv5", 8 * b, 16 * b, 2, false},
		{"conv6", 16 * b, 16 * b, 1, false},
		{"conv7", 16 * b, 16 * b, 2, false},
	}
	shape := net.InputShape()
	for _, s := range specs {
		conv := newConv3D(newParamUnbackedGrad, s.name, s.in, s.out, 3, s.stride, 1, pool, rng)
		add(conv)
		shape = conv.OutputShape(shape)
		add(NewLeakyReLU(s.name+".act", alpha, pool))
		if s.poolNext {
			// Guard for very small inputs where the volume has already
			// collapsed to a single voxel.
			if shape[1] >= 2 {
				p := NewAvgPool3D(s.name+".pool", 2, 2, pool)
				add(p)
				shape = p.OutputShape(shape)
			}
		}
	}

	add(NewFlatten("flatten"))
	flat := shape.NumElements()

	// FC sizes scale with the base so the paper's b=16 gives 256 and 128.
	fc1, fc2 := 16*b, 8*b
	d1 := newDense(newParamUnbackedGrad, "fc1", flat, fc1, pool, rng)
	add(d1)
	add(NewLeakyReLU("fc1.act", alpha, pool))
	d2 := newDense(newParamUnbackedGrad, "fc2", fc1, fc2, pool, rng)
	add(d2)
	add(NewLeakyReLU("fc2.act", alpha, pool))
	d3 := newDense(newParamUnbackedGrad, "fc3", fc2, 3, pool, rng)
	add(d3)
	add(NewLeakyReLU("fc3.act", alpha, pool))
	net.bindGrads()
	return net, nil
}

// ConvLayers returns the network's convolution layers in order, for the
// Table-I per-layer benchmark.
func (n *Network) ConvLayers() []*Conv3D {
	var out []*Conv3D
	for _, l := range n.Layers {
		if c, ok := l.(*Conv3D); ok {
			out = append(out, c)
		}
	}
	return out
}

// ShapeAtLayer returns the input shape seen by layer index i.
func (n *Network) ShapeAtLayer(i int) tensor.Shape {
	shape := n.InputShape()
	for j := 0; j < i; j++ {
		shape = n.Layers[j].OutputShape(shape)
	}
	return shape
}
