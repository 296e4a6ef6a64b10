package cluster

import (
	"context"
	"strings"
	"testing"
	"time"

	"nasaic/internal/jobs"
	"nasaic/pkg/nasaic"
)

// TestOversizedDoneFrame pins the stream parser against the one SSE line
// that genuinely grows without bound: the done frame's data payload carries
// the job's full terminal snapshot, and a long run's explored-solutions
// array easily passes any fixed line cap (a 1MB scanner limit made every
// follow attempt fail with "token too long" and re-dispatch forever). The
// coordinator must proxy a multi-megabyte done frame intact.
func TestOversizedDoneFrame(t *testing.T) {
	big := strings.Repeat("x", 3<<20)
	run := func(ctx context.Context, j *jobs.Job) (*nasaic.Result, error) {
		j.EmitEvent(0, fakeEvent(j.Spec.Seed, 0))
		return &nasaic.Result{
			Workload: j.Spec.Workload,
			Episodes: j.Spec.Episodes,
			Explored: []*nasaic.Solution{{Tasks: []nasaic.TaskResult{{Architecture: big}}}},
		}, nil
	}
	w := startWorker(t, jobs.Options{MaxConcurrent: 1, Executor: execFunc(run)})
	coord, cm, srv := testCoordinator(t, []*testWorker{w}, jobs.Options{MaxConcurrent: 1})
	waitHealthy(t, coord, 1)

	snap := postJob(t, srv.URL, jobs.Spec{Workload: "W3", Episodes: 1, Seed: 5})
	j, err := cm.Get(snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := j.Wait(ctx); err != nil {
		t.Fatalf("job with oversized done frame never settled: %v", err)
	}
	final := j.Snapshot()
	if final.Status != jobs.StatusSucceeded {
		t.Fatalf("status %s (%s), want succeeded", final.Status, final.Error)
	}
	if final.Result == nil || len(final.Result.Explored) != 1 ||
		final.Result.Explored[0].Tasks[0].Architecture != big {
		t.Fatal("oversized result did not round-trip through the stream intact")
	}
	// Exactly one remote submission: the big frame must not have looked like
	// a lost worker.
	if n := len(w.m.List()); n != 1 {
		t.Fatalf("worker saw %d submissions, want 1 (no spurious re-dispatch)", n)
	}
}
