package cluster

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"strconv"
	"testing"
	"time"

	"nasaic/internal/faultfs"
	"nasaic/internal/jobs"
	"nasaic/pkg/nasaic"
)

// runningOn finds which worker replica is executing a remote job, by asking
// each worker's manager directly.
func runningOn(t *testing.T, workers []*testWorker) (*testWorker, *testWorker) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		for i, w := range workers {
			for _, j := range w.m.List() {
				if j.Snapshot().Status == jobs.StatusRunning {
					return w, workers[1-i]
				}
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("no worker ever ran the job")
	return nil, nil
}

// TestFailoverRedispatch is the worker-death acceptance test: a worker is
// killed mid-job (connections severed, listener closed — no graceful
// cancel), the coordinator re-dispatches to the surviving replica, and the
// deterministic re-run converges to the same terminal result. A client that
// disconnected early and resumes via Last-Event-ID after the failover sees
// the standard contract: an explicit `reset` frame where the bounded ring
// moved past its resume point, then a contiguous tail and the stable done
// frame — never an error, never a duplicate, never a silent gap.
func TestFailoverRedispatch(t *testing.T) {
	const episodes, ring = 60, 16
	pace := 5 * time.Millisecond

	w1 := startWorker(t, jobs.Options{MaxConcurrent: 1, Executor: fakeRun(pace)})
	w2 := startWorker(t, jobs.Options{MaxConcurrent: 1, Executor: fakeRun(pace)})
	workers := []*testWorker{w1, w2}
	coord, cm, srv := testCoordinator(t, workers, jobs.Options{MaxConcurrent: 2, EventBuffer: ring})
	waitHealthy(t, coord, 2)

	snap := postJob(t, srv.URL, jobs.Spec{Workload: "W3", Episodes: episodes, Seed: 7})

	// A client follows the stream briefly, then drops (network blip). It
	// remembers the last id it saw for the resume.
	resp, err := http.Get(srv.URL + "/v1/jobs/" + snap.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	early := readFrames(bufio.NewReader(resp.Body), 5)
	resp.Body.Close()
	if len(early) != 5 || early[4].event != "episode" {
		t.Fatalf("early frames: %+v", early)
	}
	lastSeen := early[4].id

	// Kill whichever replica is executing the job, mid-run.
	victim, survivor := runningOn(t, workers)
	victim.kill()

	// The coordinator re-dispatches; the job must converge on the survivor.
	j, err := cm.Get(snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := j.Wait(ctx); err != nil {
		t.Fatalf("job never settled after failover: %v", err)
	}
	final := j.Snapshot()
	if final.Status != jobs.StatusSucceeded {
		t.Fatalf("status %s (%s), want succeeded", final.Status, final.Error)
	}
	if final.Result == nil || final.Result.Episodes != episodes {
		t.Fatalf("result %+v, want the deterministic %d-episode outcome", final.Result, episodes)
	}
	if name, _ := j.Assignment(); name != survivor.srv.URL {
		t.Fatalf("final binding %q, want the survivor %q", name, survivor.srv.URL)
	}

	// The client resumes where it left off. Its resume point (seq 5) has been
	// evicted from the coordinator's 16-event ring, so the stream must open
	// with an explicit reset naming the first retained sequence number, then
	// a contiguous tail whose payloads are the deterministic event bytes, then
	// the stable done frame.
	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/v1/jobs/"+snap.ID+"/events", nil)
	req.Header.Set("Last-Event-ID", strconv.Itoa(lastSeen))
	resumed, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resumed.Body.Close()
	frames := readFrames(bufio.NewReader(resumed.Body), ring+3)

	firstRetained := episodes - ring
	if frames[0].event != "reset" {
		t.Fatalf("resumed stream opened with %q, want reset", frames[0].event)
	}
	var rf struct {
		FirstSeq int `json:"first_seq"`
		Missed   int `json:"missed"`
	}
	if err := json.Unmarshal(frames[0].data, &rf); err != nil {
		t.Fatal(err)
	}
	if rf.FirstSeq != firstRetained || rf.Missed != firstRetained-(lastSeen+1) {
		t.Fatalf("reset frame %+v, want first_seq %d missed %d", rf, firstRetained, firstRetained-(lastSeen+1))
	}
	if len(frames) != 1+ring+1 {
		t.Fatalf("resumed stream carried %d frames, want reset + %d episodes + done", len(frames), ring)
	}
	for i, f := range frames[1 : 1+ring] {
		seq := firstRetained + i
		if f.event != "episode" || f.id != seq {
			t.Fatalf("resumed frame %d: event %q id %d, want episode %d", i, f.event, f.id, seq)
		}
		want, err := nasaic.EncodeEvent(fakeEvent(7, seq))
		if err != nil {
			t.Fatal(err)
		}
		if string(f.data) != string(want) {
			t.Fatalf("resumed frame %d diverged after failover:\n got %s\nwant %s", seq, f.data, want)
		}
	}
	done := frames[len(frames)-1]
	if done.event != "done" || done.id != episodes {
		t.Fatalf("last resumed frame: %q id %d, want done %d", done.event, done.id, episodes)
	}
}

// TestCoordinatorJournalBudget pins what a proxied job costs the
// coordinator's journal: its submitted, assigned and finished records (one
// write each, counted on the fault-injecting filesystem) and nothing per
// episode the worker streams.
func TestCoordinatorJournalBudget(t *testing.T) {
	w := startWorker(t, jobs.Options{MaxConcurrent: 1, Executor: fakeRun(time.Millisecond)})
	mem := faultfs.NewMem(faultfs.Faults{})
	coord, m, srv := testCoordinator(t, []*testWorker{w}, jobs.Options{MaxConcurrent: 1, DataDir: "/data", FS: mem})
	waitHealthy(t, coord, 1)

	before := mem.WriteOps()
	snap := postJob(t, srv.URL, jobs.Spec{Workload: "W3", Episodes: 5, Seed: 3})
	j, err := m.Get(snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := j.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if final := j.Snapshot(); final.Status != jobs.StatusSucceeded || final.Episodes != 5 {
		t.Fatalf("proxied job %s with %d episodes, want a 5-episode success", final.Status, final.Episodes)
	}
	if n := mem.WriteOps() - before; n != 3 {
		t.Fatalf("a proxied 5-episode job made %d journal writes, want 3 (submitted, assigned, finished)", n)
	}
}

// TestCoordinatorReattach is the coordinator-restart acceptance test: a
// second coordinator recovering from a snapshot of the first one's journal
// (taken mid-run, torn tail and all — exactly what a crash leaves behind)
// finds the journaled job→worker binding, re-attaches to the still-running
// remote job instead of re-dispatching it, replays the worker's stream from
// seq 0 into its empty ring, and converges to the identical terminal result
// with a gap-free event ring.
func TestCoordinatorReattach(t *testing.T) {
	const episodes = 150
	pace := 5 * time.Millisecond

	w := startWorker(t, jobs.Options{MaxConcurrent: 1, Executor: fakeRun(pace)})
	dir1 := t.TempDir()
	coord1, m1, srv1 := testCoordinator(t, []*testWorker{w}, jobs.Options{MaxConcurrent: 1, DataDir: dir1})
	waitHealthy(t, coord1, 1)

	snap := postJob(t, srv1.URL, jobs.Spec{Workload: "W3", Episodes: episodes, Seed: 3})
	j1, err := m1.Get(snap.ID)
	if err != nil {
		t.Fatal(err)
	}

	// Let the run get well underway, then snapshot the journal directory —
	// a file-level copy while the journal is hot, as a crash-plus-restore
	// would see it (recovery truncates any torn tail by design).
	deadline := time.Now().Add(10 * time.Second)
	for j1.NextSeq() < 30 {
		if time.Now().After(deadline) {
			t.Fatalf("job stuck at seq %d", j1.NextSeq())
		}
		time.Sleep(2 * time.Millisecond)
	}
	dir2 := t.TempDir()
	if err := os.CopyFS(dir2, os.DirFS(dir1)); err != nil {
		t.Fatal(err)
	}

	// "Restart": a second coordinator over the snapshot, same worker fleet.
	coord2, err := New(Config{
		Workers:       []string{w.srv.URL},
		Key:           testKey,
		ProbeInterval: 20 * time.Millisecond,
		RetryDelay:    10 * time.Millisecond,
		StreamRetries: 3,
		Logf:          t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord2.Close()
	m2 := jobs.NewManager(jobs.Options{MaxConcurrent: 1, DataDir: dir2, Executor: coord2, Logf: t.Logf})
	defer m2.Close()

	j2, err := m2.Get(snap.ID)
	if err != nil {
		t.Fatalf("restarted coordinator forgot the journaled job: %v", err)
	}
	if name, remote := j2.Assignment(); name != w.srv.URL || remote == "" {
		t.Fatalf("recovered binding %q/%q, want the journaled worker", name, remote)
	}
	// Re-attachment, not re-dispatch: the worker must only ever have seen
	// one submission for this spec.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := j2.Wait(ctx); err != nil {
		t.Fatalf("re-attached job never settled: %v", err)
	}
	if n := len(w.m.List()); n != 1 {
		t.Fatalf("worker saw %d jobs, want 1 (re-attach must not re-dispatch)", n)
	}

	final := j2.Snapshot()
	if final.Status != jobs.StatusSucceeded || final.Result == nil || final.Result.Episodes != episodes {
		t.Fatalf("re-attached outcome %s %+v, want the %d-episode success", final.Status, final.Result, episodes)
	}
	// The ring is continuous across the restart: the worker's whole stream,
	// replayed from seq 0, every payload the deterministic bytes.
	evs, start, _ := j2.Events(0)
	if start != 0 || len(evs) != episodes {
		t.Fatalf("recovered ring starts at %d with %d events, want a gap-free 0..%d", start, len(evs), episodes)
	}
	for i, ev := range evs {
		if ev != fakeEvent(3, i) {
			t.Fatalf("ring event %d diverged across the restart: %+v vs %+v", i, ev, fakeEvent(3, i))
		}
	}

	// The original coordinator also settles identically (both were streaming
	// the same remote run).
	if err := j1.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if s1 := j1.Snapshot(); s1.Status != jobs.StatusSucceeded || s1.Result.Episodes != episodes {
		t.Fatalf("original coordinator diverged: %s %+v", s1.Status, s1.Result)
	}
}
