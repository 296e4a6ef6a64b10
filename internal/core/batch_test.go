package core

import (
	"context"
	"fmt"
	"testing"

	"nasaic/internal/workload"
)

// A warm batch allocates nothing per candidate beyond the hardware request
// itself: the candidates, their action copies, decodes and accuracies live
// in the explorer's arena. Every request costs two allocations (the design
// fingerprint and the cache key, or a resource violation's error); a warm
// refine sweep adds its working action copy, and a fanned-out batch two
// allocations for its shared state and second goroutine. Both bounds were
// measured with Go 1.24 on W1 and hold at Workers 1 and 2.
func TestWarmBatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			cfg := fastConfig(3)
			cfg.Workers = workers
			x, err := New(workload.W1(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			ec := DefaultEvolutionConfig()
			ec.Population, ec.Generations, ec.Elite = 10, 2, 2
			res := evolve(t, x, ec)
			if res.Best == nil {
				t.Fatal("no feasible solution to refine")
			}
			ctx := context.Background()
			specs := x.ctrl.Specs()
			// Descend to a local optimum, so one more pass re-requests
			// only evaluated points and improves nothing.
			sol, err := x.descend(ctx, res.Best, specs, 50)
			if err != nil {
				t.Fatal(err)
			}
			perBatch := 0
			if workers > 1 {
				perBatch = 2
			}

			pre := x.work()
			sweep := func() {
				if got, err := x.descend(ctx, sol, specs, 1); err != nil || got != sol {
					t.Fatalf("warm pass moved off the optimum: %v", err)
				}
			}
			sweep()
			post := x.work()
			requests := post.HWRequests - pre.HWRequests
			if post.HWEvals != pre.HWEvals || requests == 0 {
				t.Fatalf("warm pass computed %d evaluations over %d requests", post.HWEvals-pre.HWEvals, requests)
			}
			// A warm request is a cache hit or a resource-violating design,
			// which is answered without a cache key and allocates nothing.
			hits := post.HWCacheHits - pre.HWCacheHits
			if violating := requests - hits; violating == 0 {
				t.Fatal("the warm pass requested no resource-violating design; the test is vacuous")
			}
			want := float64(2*hits + 1 + perBatch*len(specs))
			if got := testing.AllocsPerRun(20, sweep); got > want {
				t.Errorf("warm refine pass (%d requests, %d cache hits) allocates %.0f times, want at most %.0f", requests, hits, got, want)
			}

			genomes := make([][]int, len(res.Explored))
			for i, s := range res.Explored {
				genomes[i] = s.actions
			}
			generation := func() {
				cands := x.batch(len(genomes))
				for i, g := range genomes {
					cands[i].actions = g
					x.decode(&cands[i])
				}
				if err := x.evalBatch(ctx, cands); err != nil {
					t.Fatal(err)
				}
			}
			generation()
			want = float64(2*len(genomes) + perBatch)
			if got := testing.AllocsPerRun(20, generation); got > want {
				t.Errorf("warm EA batch of %d allocates %.0f times, want at most %.0f", len(genomes), got, want)
			}
		})
	}
}

// Solutions built from batch candidates must not alias the arena the next
// batch overwrites: after an EA search with refine, every explored
// solution's choices, networks, accuracies and design still match a fresh
// decode of its own actions.
func TestSolutionsOwnTheirDecode(t *testing.T) {
	x, err := New(workload.W1(), fastConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	ec := DefaultEvolutionConfig()
	ec.Population, ec.Generations, ec.Elite = 10, 3, 2
	res := evolve(t, x, ec)
	if len(res.Explored) < 2 {
		t.Fatal("too few solutions to check")
	}
	for i, sol := range res.Explored {
		c := &x.batch(1)[0]
		copy(c.actions, sol.actions)
		x.decode(c)
		x.train(c)
		for ti := range c.nets {
			if sol.Networks[ti] != c.nets[ti] || &sol.ArchChoices[ti][0] != &c.choices[ti][0] || sol.Accuracies[ti] != c.accs[ti] {
				t.Fatalf("solution %d (ep%d) task %d no longer matches its actions", i, sol.Episode, ti)
			}
		}
		if got, want := sol.Design.Fingerprint(), c.design.Fingerprint(); got != want {
			t.Fatalf("solution %d design %s, its actions decode to %s", i, got, want)
		}
	}
}
