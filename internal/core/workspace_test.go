package core

import (
	"context"
	"reflect"
	"slices"
	"strconv"
	"testing"

	"nasaic/internal/accel"
	"nasaic/internal/dnn"
	"nasaic/internal/evalcache"
	"nasaic/internal/stats"
	"nasaic/internal/workload"
)

// distinctDesigns draws n distinct random designs of the evaluator's hardware
// space with at least two active sub-accelerators, so the HAP instances of
// W1's networks on them are beyond the exhaustive solver's range.
func distinctDesigns(e *Evaluator, n int, seed int64) []accel.Design {
	rng := stats.NewRNG(seed)
	seen := map[string]bool{}
	var out []accel.Design
	for len(out) < n {
		d := e.Cfg.HW.Random(rng)
		if fp := d.Fingerprint(); !seen[fp] && len(d.Active()) >= 2 {
			seen[fp] = true
			out = append(out, d)
		}
	}
	return out
}

// A request that misses the hardware cache, solved on a warm workspace with
// every layer cost memoized, allocates exactly what the cache keeps: the
// metrics' slices and the entry. Everything else (the problem, the solver
// state, the key) is workspace scratch.
func TestWarmSolveAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	e := testEvaluator(t, workload.W1())
	nets := midNetworks(t, e.W)
	const runs = 40
	designs := distinctDesigns(e, runs+1, 32)
	ctx := context.Background()
	ws := new(workspace)

	// Warm the workspace and the layer-cost memo on a throwaway cache, so
	// the measured requests miss only in the hardware cache.
	e.hwCache = evalcache.New[HWMetrics]()
	for _, d := range designs {
		if _, err := e.hwEval(ctx, ws, nets, d, true); err != nil {
			t.Fatal(err)
		}
	}
	// Measure against a cache whose shards are full of other keys, so an
	// insert evicts one instead of growing a map now and then.
	e.hwCache = evalcache.New[HWMetrics]()
	var other []byte
	for i := range 1 << 15 {
		other = strconv.AppendInt(other[:0], int64(i), 10)
		e.hwCache.GetOrComputeErr(other, func() (HWMetrics, error) { return HWMetrics{}, nil })
	}

	pre := e.EvalStats()
	i := 0
	allocs := testing.AllocsPerRun(runs, func() {
		if _, err := e.hwEval(ctx, ws, nets, designs[i], true); err != nil {
			t.Fatal(err)
		}
		i++
	})
	post := e.EvalStats()
	if evals := post.HWEvals - pre.HWEvals; evals != runs+1 {
		t.Fatalf("%d of %d measured requests were computed, want all", evals, runs+1)
	}
	if reqs := post.LayerCostRequests - pre.LayerCostRequests; post.LayerCostHits-pre.LayerCostHits != reqs {
		t.Fatalf("the measured requests missed the layer-cost memo")
	}
	const (
		assign    = 2 // the HAP result's row index and rows
		bufDemand = 1 // the HAP result's buffer demand
		metrics   = 1 // HWMetrics.BufDemand
		key       = 1 // the string the cache keeps
		entry     = 3 // the singleflight call, the LRU element and its entry
	)
	if want := float64(assign + bufDemand + metrics + key + entry); allocs != want {
		t.Errorf("cold request on a warm workspace allocates %.0f times, want %.0f", allocs, want)
	}
}

// A cached entry owns its slices and its key: solving other problems on the
// workspace that computed it changes neither the entry nor its reachability.
func TestCachedMetricsOwnTheirSlices(t *testing.T) {
	e := testEvaluator(t, workload.W1())
	nets := midNetworks(t, e.W)
	large := make([]*dnn.Network, len(e.W.Tasks))
	for i, task := range e.W.Tasks {
		large[i] = task.Space.MustDecode(task.Space.Largest())
	}
	designs := distinctDesigns(e, 8, 7)
	ctx := context.Background()
	ws := new(workspace)

	// Grow the workspace on the larger networks first, so the requests
	// below reuse its key buffer rather than reallocating it.
	if _, err := e.hwEval(ctx, ws, large, designs[1], true); err != nil {
		t.Fatal(err)
	}
	first, err := e.hwEval(ctx, ws, nets, designs[0], true)
	if err != nil {
		t.Fatal(err)
	}
	want := first
	want.Assign = make([][]int, len(first.Assign))
	for i, row := range first.Assign {
		want.Assign[i] = slices.Clone(row)
	}
	want.BufDemand = slices.Clone(first.BufDemand)
	wantKey := string(appendHWKey(nil, e.hwPrefix, nets, designs[0]))

	for _, d := range designs[1:] {
		for _, ns := range [][]*dnn.Network{large, nets} {
			if _, err := e.hwEval(ctx, ws, ns, d, true); err != nil {
				t.Fatal(err)
			}
		}
	}
	if !reflect.DeepEqual(first, want) {
		t.Fatalf("cached metrics changed after the workspace solved other problems:\n got %+v\nwant %+v", first, want)
	}
	pre := e.EvalStats()
	again, err := e.hwEval(ctx, ws, nets, designs[0], true)
	if err != nil {
		t.Fatal(err)
	}
	if post := e.EvalStats(); post.HWCacheHits != pre.HWCacheHits+1 || post.HWEvals != pre.HWEvals {
		t.Fatal("the first request's entry is no longer found under its key")
	}
	if !reflect.DeepEqual(again, want) {
		t.Fatalf("cache hit returned %+v, want %+v", again, want)
	}
	// The entries' keys are the cache's own: rewriting the workspace's key
	// buffer leaves them distinct and the first one in place.
	if _, err := e.hwEval(ctx, ws, large, designs[2], true); err != nil {
		t.Fatal(err)
	}
	keys := map[string]bool{}
	for _, en := range e.hwCache.Entries() {
		if keys[en.Key] {
			t.Fatalf("two cache entries share the key %q", en.Key)
		}
		keys[en.Key] = true
	}
	if !keys[wantKey] {
		t.Fatal("no cache entry holds the first request's key")
	}
}
