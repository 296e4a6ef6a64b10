// Package maestro is the analytic cost model of this repository — the
// stand-in for the MAESTRO tool [23] the paper uses. Given a layer bound to
// a dataflow template (internal/dataflow), it produces latency in cycles,
// energy in nJ, and the buffer demand; given a sub-accelerator's resources it
// produces silicon area in µm².
//
// Absolute constants are calibrated so magnitudes land in the ranges the
// paper reports (latencies of 1e5–1e6 cycles, energies of 1e9 nJ, areas of
// 1e9 µm²; see DESIGN.md §4). Relative access costs follow the standard
// memory-hierarchy ratios (register file ≈ MAC ≪ NoC < global buffer ≪
// DRAM) that make dataflow choice matter.
//
// Because LayerCost is a pure function of ⟨layer shape, dataflow, PEs, BW⟩
// given a Config, its results are memoized by a CostMemo (one per core.Memos
// bundle). core.Memos also snapshots the memo's Entries to disk under the
// calibration's Fingerprint, so fresh processes skip recomputation without
// ever changing a result.
package maestro

import (
	"fmt"
	"math"

	"nasaic/internal/dataflow"
	"nasaic/internal/dnn"
)

// Config holds the cost-model calibration constants. The zero value is not
// usable; start from DefaultConfig.
type Config struct {
	// ClockGHz converts NoC bandwidth (GB/s) into bytes/cycle.
	ClockGHz float64

	// Energy per access in pJ, before EnergyScale.
	EnergyMAC  float64 // one multiply-accumulate
	EnergyRF   float64 // PE register-file access
	EnergyNoC  float64 // one element over the NoC
	EnergyGB   float64 // global-buffer access
	EnergyDRAM float64 // off-chip access
	// EnergyScale is a global multiplier calibrating absolute magnitude to
	// the paper's reported nJ ranges.
	EnergyScale float64

	// Area constants in µm².
	AreaPE         float64 // one PE (MAC + register file)
	AreaBufPerByte float64 // global buffer SRAM
	AreaNoCPerGBs  float64 // NoC/NIC per GB/s of provisioned bandwidth
	AreaFixed      float64 // controller, DMA, misc. per sub-accelerator
}

// DefaultConfig returns the calibrated model used throughout the
// experiments.
func DefaultConfig() Config {
	return Config{
		ClockGHz:    1.0,
		EnergyMAC:   1.0,
		EnergyRF:    1.0,
		EnergyNoC:   2.0,
		EnergyGB:    6.0,
		EnergyDRAM:  200.0,
		EnergyScale: 450.0,

		AreaPE:         1.0e6,
		AreaBufPerByte: 100.0,
		AreaNoCPerGBs:  2.0e6,
		AreaFixed:      5.0e7,
	}
}

// Fingerprint returns the canonical identity of the cost-model calibration:
// every constant, rendered with its field name. It is the cache-invalidation
// key of the persistent warm tier — a memo file written under one
// calibration is never loaded into a memo bound to another, and adding a
// Config field changes every fingerprint, retiring stale files wholesale.
func (c Config) Fingerprint() string {
	return fmt.Sprintf("%#v", c)
}

// Validate checks the configuration for usable values.
func (c Config) Validate() error {
	if c.ClockGHz <= 0 {
		return fmt.Errorf("maestro: ClockGHz must be positive")
	}
	for _, v := range []struct {
		name string
		x    float64
	}{
		{"EnergyMAC", c.EnergyMAC}, {"EnergyRF", c.EnergyRF},
		{"EnergyNoC", c.EnergyNoC}, {"EnergyGB", c.EnergyGB},
		{"EnergyDRAM", c.EnergyDRAM}, {"EnergyScale", c.EnergyScale},
		{"AreaPE", c.AreaPE}, {"AreaBufPerByte", c.AreaBufPerByte},
		{"AreaNoCPerGBs", c.AreaNoCPerGBs},
	} {
		if v.x <= 0 {
			return fmt.Errorf("maestro: %s must be positive", v.name)
		}
	}
	if c.AreaFixed < 0 {
		return fmt.Errorf("maestro: AreaFixed must be non-negative")
	}
	return nil
}

// LayerCost is the cost of running one layer on one sub-accelerator.
type LayerCost struct {
	Cycles      int64
	EnergyNJ    float64
	BufferBytes int64
	Utilization float64
}

// LayerCost evaluates layer l on a sub-accelerator with the given dataflow
// style, PE count and NoC bandwidth share (GB/s). It panics on non-positive
// resources, mirroring dataflow.Map.
func (c Config) LayerCost(l dnn.Layer, style dataflow.Style, pes, bwGBs int) LayerCost {
	if bwGBs <= 0 {
		panic(fmt.Sprintf("maestro: non-positive bandwidth %d", bwGBs))
	}
	m := dataflow.Map(style, l, pes)

	bytesPerCycle := float64(bwGBs) / c.ClockGHz
	nocBytes := float64(m.NoCTraffic() * dataflow.BytesPerElem)
	commCycles := int64(math.Ceil(nocBytes / bytesPerCycle))
	cycles := m.Steps
	if commCycles > cycles {
		cycles = commCycles
	}
	// Pipeline fill/drain across the PE array.
	cycles += int64(2 * math.Sqrt(float64(pes)))

	pj := float64(m.MACs)*c.EnergyMAC +
		float64(m.LocalAccesses)*c.EnergyRF +
		float64(m.NoCTraffic())*c.EnergyNoC +
		float64(m.GBAccesses)*c.EnergyGB +
		float64(m.DRAMAccesses)*c.EnergyDRAM
	pj *= c.EnergyScale

	return LayerCost{
		Cycles:      cycles,
		EnergyNJ:    pj / 1000.0,
		BufferBytes: m.BufferBytes,
		Utilization: m.Utilization,
	}
}

// CostKey is the complete identity of one LayerCost computation: the layer's
// shape (name cleared — cost depends only on dimensions) plus the
// sub-accelerator configuration. Two calls with equal keys return equal
// costs, which is what makes LayerCost memoizable; the key is a comparable
// struct so it can index a map directly, with no string building on the hot
// path.
type CostKey struct {
	Layer dnn.Layer
	Style dataflow.Style
	PEs   int
	BW    int
}

// NewCostKey builds the memoization key for LayerCost(l, style, pes, bwGBs).
func NewCostKey(l dnn.Layer, style dataflow.Style, pes, bwGBs int) CostKey {
	l.Name = "" // cost is independent of the layer's name
	return CostKey{Layer: l, Style: style, PEs: pes, BW: bwGBs}
}

// EnergyBreakdown decomposes a layer's energy (nJ) by memory-hierarchy
// level. The components sum exactly to LayerCost().EnergyNJ; the DSE reports
// and the quickstart example use it to show where a dataflow's energy goes.
type EnergyBreakdown struct {
	MACNJ  float64 // arithmetic
	RFNJ   float64 // PE register files
	NoCNJ  float64 // network-on-chip transfers
	GBNJ   float64 // global buffer accesses
	DRAMNJ float64 // off-chip accesses
}

// Total returns the summed energy in nJ.
func (b EnergyBreakdown) Total() float64 {
	return b.MACNJ + b.RFNJ + b.NoCNJ + b.GBNJ + b.DRAMNJ
}

// EnergyBreakdown evaluates the per-level energy of layer l on the given
// sub-accelerator configuration.
func (c Config) EnergyBreakdown(l dnn.Layer, style dataflow.Style, pes, bwGBs int) EnergyBreakdown {
	if bwGBs <= 0 {
		panic(fmt.Sprintf("maestro: non-positive bandwidth %d", bwGBs))
	}
	m := dataflow.Map(style, l, pes)
	s := c.EnergyScale / 1000.0
	return EnergyBreakdown{
		MACNJ:  float64(m.MACs) * c.EnergyMAC * s,
		RFNJ:   float64(m.LocalAccesses) * c.EnergyRF * s,
		NoCNJ:  float64(m.NoCTraffic()) * c.EnergyNoC * s,
		GBNJ:   float64(m.GBAccesses) * c.EnergyGB * s,
		DRAMNJ: float64(m.DRAMAccesses) * c.EnergyDRAM * s,
	}
}

// NetworkCost sums LayerCost over every compute layer of n, as if the whole
// network ran serially on a single sub-accelerator. The returned buffer
// demand is the maximum over layers (buffers are reused layer-to-layer).
func (c Config) NetworkCost(n *dnn.Network, style dataflow.Style, pes, bwGBs int) LayerCost {
	var total LayerCost
	for _, l := range n.ComputeLayers() {
		lc := c.LayerCost(l, style, pes, bwGBs)
		total.Cycles += lc.Cycles
		total.EnergyNJ += lc.EnergyNJ
		if lc.BufferBytes > total.BufferBytes {
			total.BufferBytes = lc.BufferBytes
		}
	}
	return total
}

// SubAccelArea returns the silicon area (µm²) of one sub-accelerator with
// pes processing elements, bwGBs of provisioned NoC bandwidth, and a global
// buffer sized for maxBufferBytes (the largest demand over the layers mapped
// to it; the paper sizes memory "to support the full use of hardware",
// §III-➋). A sub-accelerator with zero PEs occupies no area — the design
// degenerates per §V-A.
func (c Config) SubAccelArea(pes, bwGBs int, maxBufferBytes int64) float64 {
	if pes <= 0 {
		return 0
	}
	return c.AreaPE*float64(pes) +
		c.AreaBufPerByte*float64(maxBufferBytes) +
		c.AreaNoCPerGBs*float64(bwGBs) +
		c.AreaFixed
}
