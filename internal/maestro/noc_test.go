package maestro

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"nasaic/internal/dataflow"
	"nasaic/internal/dnn"
)

// This file holds the test reference for LayerCost's latency: a
// discrete-event simulator of one sub-accelerator's data delivery path. A
// DMA engine streams tiles from the global buffer over a bandwidth-limited
// NoC link into a double-buffered PE array that computes on one tile while
// the next is in flight (the standard design of the internal/dataflow
// templates; NVDLA and Shidiannao both double-buffer their working sets).
// LayerCost collapses this pipeline into max(compute, transfer) + 2√PEs
// fill; the cross-validation below bounds that collapse against the
// simulated makespan. The simulator also models what the cost model
// deliberately ignores — contention between sub-accelerators sharing the
// global interconnect — quantifying the error of treating per-sub-
// accelerator NoC shares as independent links (§III-➋ gives every
// sub-accelerator a dedicated bandwidth share, which the hardware's NIC
// arbitration enforces).

// tile is one unit of pipelined work: the bytes that must cross the NoC
// before its compute can start, and the compute cycles it then occupies the
// PE array for.
type tile struct {
	bytes, computeCycles int64
}

// link models one sub-accelerator's NoC allocation; bytesPerCycle is the
// provisioned bandwidth (GB/s at 1 GHz ≡ B/cycle).
type link struct {
	bytesPerCycle float64
}

// transferCycles returns the cycles to move n bytes over the link.
func (l link) transferCycles(n int64) int64 {
	if l.bytesPerCycle <= 0 {
		panic("noc: non-positive bandwidth")
	}
	c := int64(float64(n) / l.bytesPerCycle)
	if float64(c)*l.bytesPerCycle < float64(n) {
		c++
	}
	if c < 1 && n > 0 {
		c = 1
	}
	return c
}

// simulate runs the double-buffered tile pipeline and returns the makespan
// in cycles: tile i+1 transfers while tile i computes; compute of tile i
// starts when both its transfer and the previous tile's compute are done.
func simulate(l link, tiles []tile) int64 {
	var xferDone, compDone int64
	for _, t := range tiles {
		if t.bytes < 0 || t.computeCycles < 0 {
			panic(fmt.Sprintf("noc: negative tile %+v", t))
		}
		xferDone += l.transferCycles(t.bytes) // transfers are serialized on the link
		compDone = max(xferDone, compDone) + t.computeCycles
	}
	return compDone
}

// evenTiles splits a layer's total traffic and compute into n equal tiles,
// the shape produced by the dataflow templates' regular loop nests. The
// remainders go on the first tile so totals are exact.
func evenTiles(totalBytes, totalCompute int64, n int) []tile {
	if n <= 0 {
		panic("noc: tile count must be positive")
	}
	tiles := make([]tile, n)
	for i := range tiles {
		tiles[i] = tile{totalBytes / int64(n), totalCompute / int64(n)}
	}
	tiles[0].bytes += totalBytes % int64(n)
	tiles[0].computeCycles += totalCompute % int64(n)
	return tiles
}

// simulateShared runs k tile streams over one shared link of the summed
// bandwidth with cycle-granular fair sharing, and returns each stream's
// makespan there (shared) and on its dedicated share alone (isolated).
func simulateShared(shares []link, streams [][]tile) (isolated, shared []int64) {
	if len(shares) != len(streams) {
		panic("noc: share/stream count mismatch")
	}
	isolated = make([]int64, len(streams))
	shared = make([]int64, len(streams))
	var total float64
	for i, l := range shares {
		isolated[i] = simulate(l, streams[i])
		total += l.bytesPerCycle
	}

	// At every cycle, streams with an in-flight transfer split the summed
	// bandwidth proportionally to their provisioned share (weighted fair
	// queuing with work conservation); each stream's PE array computes
	// ready tiles in order, one at a time.
	type state struct {
		ti        int     // next tile to transfer
		left      float64 // bytes left on the in-flight transfer
		ready     []int64 // FIFO of compute durations whose data arrived
		compUntil int64   // engine busy until this cycle
		computed  int
	}
	sts := make([]state, len(streams))
	done := 0
	for i := range sts {
		if len(streams[i]) == 0 {
			done++
			continue
		}
		sts[i].left = float64(streams[i][0].bytes)
	}

	var cycle int64
	for done < len(streams) {
		cycle++
		var activeShare float64
		for i := range sts {
			if sts[i].computed < len(streams[i]) && sts[i].ti < len(streams[i]) {
				activeShare += shares[i].bytesPerCycle
			}
		}
		for i := range sts {
			st := &sts[i]
			if st.computed >= len(streams[i]) {
				continue
			}
			if st.ti < len(streams[i]) && activeShare > 0 {
				st.left -= total * shares[i].bytesPerCycle / activeShare
				for st.left <= 0 && st.ti < len(streams[i]) {
					st.ready = append(st.ready, streams[i][st.ti].computeCycles)
					st.ti++
					if st.ti < len(streams[i]) {
						st.left += float64(streams[i][st.ti].bytes)
					}
				}
			}
			if len(st.ready) > 0 && cycle >= st.compUntil {
				st.compUntil = cycle + st.ready[0]
				st.ready = st.ready[1:]
			}
			if st.ti >= len(streams[i]) && len(st.ready) == 0 && cycle >= st.compUntil {
				st.computed = len(streams[i])
				shared[i] = max(cycle, st.compUntil)
				done++
			}
		}
	}
	return isolated, shared
}

// realLayers returns the compute layers of the smallest and largest
// networks of every task search space (CIFAR-10 and STL-10 ResNets, the
// Nuclei UNet).
func realLayers() []dnn.Layer {
	var out []dnn.Layer
	for _, sp := range []*dnn.Space{dnn.CIFARResNetSpace(), dnn.STLResNetSpace(), dnn.NucleiUNetSpace()} {
		for _, choices := range [][]int{sp.Smallest(), sp.Largest()} {
			out = append(out, sp.MustDecode(choices).ComputeLayers()...)
		}
	}
	return out
}

// TestLayerCostMatchesSimulation cross-validates the production latency
// formula: for real network layers on every dataflow template across the
// PE and bandwidth grid, LayerCost's cycles stay within one tile plus the
// 2√PEs fill of the event-driven makespan of the same traffic and compute
// streamed as evenly tiled double-buffered transfers.
func TestLayerCostMatchesSimulation(t *testing.T) {
	cfg := DefaultConfig()
	layers := realLayers()
	checked := 0
	for _, l := range layers {
		for _, style := range dataflow.AllStyles {
			for _, pes := range []int{64, 576, 4096} {
				m := dataflow.Map(style, l, pes)
				totalBytes := m.NoCTraffic() * dataflow.BytesPerElem
				for _, bw := range []int{1, 8, 64} {
					got := cfg.LayerCost(l, style, pes, bw).Cycles
					lk := link{bytesPerCycle: float64(bw) / cfg.ClockGHz}
					for _, n := range []int{4, 32} {
						tiles := evenTiles(totalBytes, m.Steps, n)
						sim := simulate(lk, tiles)
						fill := int64(2 * math.Sqrt(float64(pes)))
						// One tile of slack, the fill, and per-tile ceiling rounding.
						slack := lk.transferCycles(tiles[0].bytes) + tiles[0].computeCycles + fill + int64(n) + 2
						if diff := got - sim; diff > slack || -diff > slack {
							t.Fatalf("%s %s pes=%d bw=%d tiles=%d: LayerCost %d vs simulated %d (slack %d)",
								l, style, pes, bw, n, got, sim, slack)
						}
						checked++
					}
				}
			}
		}
	}
	if len(layers) < 20 {
		t.Fatalf("only %d real layers; the cross-validation needs the task spaces' networks", len(layers))
	}
	t.Logf("%d (layer, style, PEs, BW, tiles) points within one tile plus fill", checked)
}

func TestTransferCycles(t *testing.T) {
	l := link{bytesPerCycle: 8}
	for _, c := range []struct{ bytes, want int64 }{{64, 8}, {65, 9}, {0, 0}, {1, 1}} {
		if got := l.transferCycles(c.bytes); got != c.want {
			t.Errorf("%dB at 8B/cy = %d cycles, want %d", c.bytes, got, c.want)
		}
	}
}

func TestSimulateComputeBound(t *testing.T) {
	// Huge compute, tiny traffic: makespan = fill + total compute.
	got := simulate(link{bytesPerCycle: 64}, evenTiles(640, 100000, 10))
	if want := int64(1) + 100000; got != want { // first tile transfer (64B -> 1 cycle) + compute
		t.Errorf("compute-bound makespan = %d, want %d", got, want)
	}
}

func TestSimulateBandwidthBound(t *testing.T) {
	// Huge traffic, tiny compute: makespan ≈ total transfer + last compute.
	got := simulate(link{bytesPerCycle: 1}, evenTiles(100000, 10, 10))
	if got < 100000 || got > 100000+10+1 {
		t.Errorf("bandwidth-bound makespan = %d, want ~100001", got)
	}
}

func TestEvenTilesExact(t *testing.T) {
	var bytes, comp int64
	for _, ti := range evenTiles(1003, 77, 7) {
		bytes += ti.bytes
		comp += ti.computeCycles
	}
	if bytes != 1003 || comp != 77 {
		t.Errorf("evenTiles loses work: %d bytes, %d compute", bytes, comp)
	}
}

// Simulation can never beat both bounds: makespan >= total compute and
// makespan >= total transfer time.
func TestSimulationLowerBounds(t *testing.T) {
	f := func(bw8, nt8 uint8, bytes16, comp16 uint16) bool {
		l := link{bytesPerCycle: float64(bw8%63 + 1)}
		totalBytes := int64(bytes16) * 10
		totalComp := int64(comp16) * 10
		sim := simulate(l, evenTiles(totalBytes, totalComp, int(nt8%20+1)))
		return sim >= totalComp && sim >= l.transferCycles(totalBytes)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// Fair sharing with proportional shares: each stream's shared makespan
// stays close to its isolated makespan (the property that lets the
// evaluator treat per-sub-accelerator bandwidth shares as dedicated links).
func TestSharedMatchesIsolated(t *testing.T) {
	shares := []link{{bytesPerCycle: 16}, {bytesPerCycle: 48}}
	streams := [][]tile{
		evenTiles(32000, 1500, 20),
		evenTiles(96000, 1800, 20),
	}
	isolated, shared := simulateShared(shares, streams)
	for i := range streams {
		iso, sh := isolated[i], shared[i]
		diff := sh - iso
		if diff < 0 {
			diff = -diff
		}
		if float64(diff) > 0.20*float64(iso)+64 {
			t.Errorf("stream %d: shared %d vs isolated %d differs more than 20%%", i, sh, iso)
		}
	}
}

// Work conservation: when one stream is idle the other may finish earlier
// than isolated, never later than 2x its isolated bandwidth-bound time.
func TestSharedWorkConservation(t *testing.T) {
	shares := []link{{bytesPerCycle: 8}, {bytesPerCycle: 56}}
	streams := [][]tile{
		evenTiles(80000, 10, 10), // bandwidth hungry, small share
		{},                       // idle
	}
	_, shared := simulateShared(shares, streams)
	// With the idle stream's bandwidth redistributed, stream 0 gets the
	// full 64 B/cycle: ~80000/64 = 1250 cycles rather than 10000.
	if shared[0] > 2*1250+100 {
		t.Errorf("work conservation failed: shared makespan %d", shared[0])
	}
}

func TestSimulatePanics(t *testing.T) {
	for name, f := range map[string]func(){
		"bad bw":    func() { simulate(link{}, []tile{{1, 1}}) },
		"neg tile":  func() { simulate(link{bytesPerCycle: 1}, []tile{{bytes: -1}}) },
		"bad tiles": func() { evenTiles(10, 10, 0) },
		"mismatch":  func() { simulateShared([]link{{bytesPerCycle: 1}}, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}
