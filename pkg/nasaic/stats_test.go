package nasaic

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden stats file")

// statsGoldenCases are the fixed-seed runs whose marshalled Result.Stats is
// pinned in testdata/stats.golden. One worker keeps the layer-memo hit count
// free of concurrent misses on the same key, so every counter is exact. The
// EA seed has no pruned generation.
var statsGoldenCases = []struct {
	name string
	opts []Option
}{
	{"rl-w3", []Option{WithWorkload("W3"), WithEpisodes(20), WithSeed(3), WithWorkers(1)}},
	{"ea-w1", []Option{WithWorkload("W1"), WithOptimizer(OptimizerEA), WithEpisodes(20), WithSeed(3), WithWorkers(1)}},
}

// TestStatsGolden pins every evaluator counter of two fixed-seed runs and
// their wire bytes (key names and order) together: the `stats` object of
// results, `done` frames and journaled records must stay byte-identical, so
// existing journals still recover. Regenerate with
// `go test ./pkg/nasaic -run StatsGolden -update` and review the diff.
func TestStatsGolden(t *testing.T) {
	var got bytes.Buffer
	for _, c := range statsGoldenCases {
		res, err := Run(context.Background(), c.opts...)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		js, err := json.Marshal(res.Stats)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&got, "%s %s\n", c.name, js)
	}
	path := filepath.Join("testdata", "stats.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("stats diverged from golden.\n--- want ---\n%s--- got ---\n%s", want, got.Bytes())
	}
}

// TestEventDeltasSumToStats: with refine off every evaluation happens inside
// an episode (generation in EA mode), so the events' evaluation-cost deltas
// add up to the result's counters and every pruned event is counted.
func TestEventDeltasSumToStats(t *testing.T) {
	for _, c := range []struct {
		workload  string
		optimizer Optimizer
	}{
		{"W1", OptimizerRL}, {"W2", OptimizerRL}, {"W3", OptimizerRL},
		{"W1", OptimizerEA}, {"W2", OptimizerEA}, {"W3", OptimizerEA},
	} {
		t.Run(fmt.Sprintf("%s-%s", c.optimizer, c.workload), func(t *testing.T) {
			var evals, hits, deduped, pruned int
			res, err := Run(context.Background(),
				WithWorkload(c.workload), WithOptimizer(c.optimizer),
				WithEpisodes(10), WithSeed(12), WithRefine(false),
				WithEventHandler(func(e Event) {
					evals += e.HWEvals
					hits += e.HWCacheHits
					deduped += e.HWDeduped
					if e.Pruned {
						pruned++
					}
				}))
			if err != nil {
				t.Fatal(err)
			}
			st := res.Stats
			if evals != st.HWEvals || hits != st.HWCacheHits || deduped != st.HWDeduped {
				t.Errorf("event deltas (evals %d, hits %d, deduped %d) != stats (%d, %d, %d)",
					evals, hits, deduped, st.HWEvals, st.HWCacheHits, st.HWDeduped)
			}
			if pruned != st.PrunedEpisodes {
				t.Errorf("%d pruned events, Stats.PrunedEpisodes = %d", pruned, st.PrunedEpisodes)
			}
		})
	}
}
