package jobs

import (
	"context"
	"testing"
	"time"

	"nasaic/pkg/nasaic"
)

// execFunc adapts a plain function to the Executor interface, so tests can
// substitute controllable fake work for the engine.
type execFunc func(ctx context.Context, j *Job) (*nasaic.Result, error)

func (f execFunc) Execute(ctx context.Context, j *Job) (*nasaic.Result, error) { return f(ctx, j) }

// fakeExecutor is a controllable Executor: Execute emits scripted events and
// blocks until released (or ctx is done), and the DrainEstimate is whatever
// the test says the "cluster" looks like.
type fakeExecutor struct {
	release chan struct{}
	result  *nasaic.Result

	queued, slots int
	ok            bool
}

func (f *fakeExecutor) Execute(ctx context.Context, j *Job) (*nasaic.Result, error) {
	select {
	case <-f.release:
		return f.result, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

func (f *fakeExecutor) DrainEstimate() (int, int, bool) { return f.queued, f.slots, f.ok }

// TestExecutorSeam pins the dispatch seam: with Options.Executor set, granted
// jobs run through it instead of the in-process engine, and its return value
// becomes the job's terminal result.
func TestExecutorSeam(t *testing.T) {
	fake := &fakeExecutor{release: make(chan struct{}), result: &nasaic.Result{Episodes: 7}}
	m := NewManager(Options{MaxConcurrent: 1, Executor: fake})
	defer m.Close()

	j, err := m.Submit(Spec{Workload: "W3", Episodes: 7})
	if err != nil {
		t.Fatal(err)
	}
	// The executor holds the job in running until released.
	deadline := time.Now().Add(5 * time.Second)
	for j.Snapshot().Status != StatusRunning {
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s before reaching the executor", j.Snapshot().Status)
		}
		time.Sleep(time.Millisecond)
	}
	close(fake.release)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := j.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	snap := j.Snapshot()
	if snap.Status != StatusSucceeded || snap.Result == nil || snap.Result.Episodes != 7 {
		t.Fatalf("executor result not adopted: %+v", snap)
	}
}

// TestEmitEventDedupAndGap pins the remote-event semantics the cluster
// coordinator depends on: duplicates below the ring head are dropped (a
// re-dispatched worker replays its deterministic prefix), a sequence jump
// skips the ring forward so subscribers see a reset instead of a silent
// hole, and SkipTo records a worker-announced gap even with no event after
// it yet.
func TestEmitEventDedupAndGap(t *testing.T) {
	fake := &fakeExecutor{release: make(chan struct{})}
	m := NewManager(Options{MaxConcurrent: 1, Executor: fake})
	defer m.Close()
	defer close(fake.release)

	j, err := m.Submit(Spec{Workload: "W3"})
	if err != nil {
		t.Fatal(err)
	}
	for seq := 0; seq < 3; seq++ {
		j.EmitEvent(seq, nasaic.Event{Episode: seq})
	}
	j.EmitEvent(1, nasaic.Event{Episode: 999}) // duplicate: must be dropped
	evs, start, _ := j.Events(0)
	if start != 0 || len(evs) != 3 || evs[1].Episode != 1 {
		t.Fatalf("after dup: start %d, %d events, evs[1]=%+v", start, len(evs), evs[1])
	}

	// Worker-announced gap with no trailing event yet.
	j.SkipTo(5)
	if got := j.NextSeq(); got != 5 {
		t.Fatalf("NextSeq after SkipTo(5) = %d", got)
	}
	j.SkipTo(4) // behind the head: no-op
	if got := j.NextSeq(); got != 5 {
		t.Fatalf("NextSeq after backwards SkipTo = %d", got)
	}

	// Gap implied by an event far ahead: ring restarts there, contiguous.
	j.EmitEvent(10, nasaic.Event{Episode: 10})
	j.EmitEvent(11, nasaic.Event{Episode: 11})
	evs, start, _ = j.Events(0)
	if start != 10 || len(evs) != 2 {
		t.Fatalf("after gap: start %d, %d events", start, len(evs))
	}
	if j.NextSeq() != 12 {
		t.Fatalf("NextSeq = %d, want 12", j.NextSeq())
	}
}

// TestRetryAfterAggregatesClusterDrain pins the coordinator's 429 hint: when
// the executor reports cluster-wide queue depth and slots, the Retry-After
// estimate uses them instead of the single-node formula.
func TestRetryAfterAggregatesClusterDrain(t *testing.T) {
	fake := &fakeExecutor{release: make(chan struct{})}
	m := NewManager(Options{MaxConcurrent: 1, MaxPending: 1, Executor: fake})
	defer m.Close()
	defer close(fake.release)

	if _, err := m.Submit(Spec{Workload: "W3"}); err != nil { // occupies the slot
		t.Fatal(err)
	}
	if _, err := m.Submit(Spec{Workload: "W3"}); err != nil { // fills the queue
		t.Fatal(err)
	}

	reject := func(want time.Duration) {
		t.Helper()
		_, err := m.Submit(Spec{Workload: "W3"})
		qe, ok := err.(*QuotaError)
		if !ok {
			t.Fatalf("submit error %v, want QuotaError", err)
		}
		if qe.RetryAfter != want {
			t.Fatalf("RetryAfter = %v, want %v", qe.RetryAfter, want)
		}
	}

	// No estimate: single-node formula over the local queue (1 queued, 1 slot).
	reject(2 * time.Second)

	// Cluster estimate: 10 queued across workers draining through 4 slots —
	// (1 local + 10 remote) / 4 → 3s, not the single-node 2s.
	fake.queued, fake.slots, fake.ok = 10, 4, true
	reject(3 * time.Second)
}
