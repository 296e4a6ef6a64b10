package jobs

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nasaic/internal/faultfs"
	"nasaic/internal/journal"
	"nasaic/pkg/nasaic"
)

// encodeEvents collapses a job's full ring into canonical JSON lines for
// bit-identical comparison across restarts and re-executions.
func encodeEvents(t *testing.T, j *Job) []string {
	t.Helper()
	evs, seq, _ := j.Events(0)
	out := make([]string, 0, len(evs))
	for i, ev := range evs {
		raw, err := nasaic.EncodeEvent(ev)
		if err != nil {
			t.Fatalf("encode event %d: %v", seq+i, err)
		}
		out = append(out, fmt.Sprintf("%d %s", seq+i, raw))
	}
	return out
}

func sameBest(a, b *nasaic.Solution) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Design.String() == b.Design.String() &&
		a.WeightedAccuracy == b.WeightedAccuracy &&
		a.LatencyCycles == b.LatencyCycles &&
		a.EnergyNJ == b.EnergyNJ &&
		a.AreaUM2 == b.AreaUM2
}

// TestRecoveryRestoresTerminalJobs is the restart round trip: a manager over
// a datadir finishes one job and cancels another, a second manager over the
// same datadir must restore both — statuses, results, full event rings (so
// SSE Last-Event-ID replay spans the restart) — and continue the job ID
// sequence instead of reissuing used IDs.
func TestRecoveryRestoresTerminalJobs(t *testing.T) {
	dir := t.TempDir()

	m1 := NewManager(Options{MaxConcurrent: 2, DataDir: dir, Logf: t.Logf})
	done, err := m1.Submit(quickSpec(10))
	if err != nil {
		t.Fatal(err)
	}
	snapDone := waitTerminal(t, done, 2*time.Minute)
	if snapDone.Status != StatusSucceeded {
		t.Fatalf("job 1: status %s (%s)", snapDone.Status, snapDone.Error)
	}
	wantEvents := encodeEvents(t, done)

	victim, err := m1.Submit(quickSpec(100000))
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, victim, time.Minute)
	if _, err := m1.Cancel(victim.ID); err != nil {
		t.Fatal(err)
	}
	snapVictim := waitTerminal(t, victim, time.Minute)
	if snapVictim.Status != StatusCancelled {
		t.Fatalf("job 2: status %s, want cancelled", snapVictim.Status)
	}
	m1.Close()

	m2 := NewManager(Options{MaxConcurrent: 2, DataDir: dir, Logf: t.Logf})
	defer m2.Close()

	r1, err := m2.Get(done.ID)
	if err != nil {
		t.Fatalf("restored job %s missing: %v", done.ID, err)
	}
	rs := r1.Snapshot()
	if rs.Status != StatusSucceeded || rs.Episodes != 10 {
		t.Fatalf("restored snapshot: %+v", rs)
	}
	if rs.Result == nil || !sameBest(rs.Result.Best, snapDone.Result.Best) {
		t.Fatalf("restored result diverged:\n%+v\nvs\n%+v", rs.Result, snapDone.Result)
	}
	gotEvents := encodeEvents(t, r1)
	if len(gotEvents) != len(wantEvents) {
		t.Fatalf("restored %d events, want %d", len(gotEvents), len(wantEvents))
	}
	for i := range wantEvents {
		if gotEvents[i] != wantEvents[i] {
			t.Fatalf("restored event %d diverged:\n%s\nvs\n%s", i, gotEvents[i], wantEvents[i])
		}
	}

	r2, err := m2.Get(victim.ID)
	if err != nil {
		t.Fatalf("restored job %s missing: %v", victim.ID, err)
	}
	if st := r2.Snapshot().Status; st != StatusCancelled {
		t.Fatalf("restored cancelled job has status %s", st)
	}

	// SSE Last-Event-ID replay across the restart: resuming from id 4 must
	// replay exactly episodes 5..9 and the stable done frame.
	srv := httptest.NewServer(NewHandler(m2))
	defer srv.Close()
	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/v1/jobs/"+done.ID+"/events", nil)
	req.Header.Set("Last-Event-ID", "4")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	frames := readSSE(t, bufio.NewReader(resp.Body), 7)
	resp.Body.Close()
	if len(frames) != 6 {
		t.Fatalf("replay after restart: %d frames, want 5 episodes + done", len(frames))
	}
	for i, f := range frames[:5] {
		if f.event != "episode" || f.id != fmt.Sprint(5+i) {
			t.Fatalf("replay frame %d: event %q id %s, want episode %d", i, f.event, f.id, 5+i)
		}
	}
	if frames[5].event != "done" || frames[5].id != "10" {
		t.Fatalf("replay terminal frame: %+v", frames[5])
	}

	// New submissions continue the journaled ID sequence.
	next, err := m2.Submit(quickSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	if next.ID != "job-3" {
		t.Fatalf("post-restart submission got %s, want job-3", next.ID)
	}
	waitTerminal(t, next, time.Minute)
}

// TestRecoveryReExecutesInterrupted crashes the filesystem right after a
// submission is journaled and verifies the next manager re-executes the job
// from its spec to the bit-identical result (events included), and that a
// third manager then restores the re-executed run as directly terminal —
// the duplicate records the re-run journaled must reduce idempotently.
func TestRecoveryReExecutesInterrupted(t *testing.T) {
	const episodes = 8

	// Reference: the same spec straight through the manager, memory-only.
	m0 := NewManager(Options{})
	ref, err := m0.Submit(quickSpec(episodes))
	if err != nil {
		t.Fatal(err)
	}
	refSnap := waitTerminal(t, ref, 2*time.Minute)
	if refSnap.Status != StatusSucceeded {
		t.Fatalf("reference run: %s (%s)", refSnap.Status, refSnap.Error)
	}
	refEvents := encodeEvents(t, ref)
	m0.Close()

	mem := faultfs.NewMem(faultfs.Faults{})
	m1 := NewManager(Options{DataDir: "/data", FS: mem})
	j1, err := m1.Submit(quickSpec(episodes))
	if err != nil {
		t.Fatal(err)
	}
	// The submitted record is fsynced before Submit returns; power fails now.
	mem.Crash()
	m1.Close() // post-crash journal writes fail silently; state is on disk only

	mem.Reboot()
	m2 := NewManager(Options{DataDir: "/data", FS: mem, Logf: t.Logf})
	rec, err := m2.Get(j1.ID)
	if err != nil {
		t.Fatalf("interrupted job %s not recovered: %v", j1.ID, err)
	}
	snap := waitTerminal(t, rec, 2*time.Minute)
	if snap.Status != StatusSucceeded {
		t.Fatalf("re-executed job: %s (%s)", snap.Status, snap.Error)
	}
	if !sameBest(snap.Result.Best, refSnap.Result.Best) {
		t.Fatalf("re-execution diverged from reference:\n%+v\nvs\n%+v",
			snap.Result.Best, refSnap.Result.Best)
	}
	gotEvents := encodeEvents(t, rec)
	if len(gotEvents) != len(refEvents) {
		t.Fatalf("re-execution emitted %d events, want %d", len(gotEvents), len(refEvents))
	}
	for i := range refEvents {
		if gotEvents[i] != refEvents[i] {
			t.Fatalf("re-executed event %d diverged:\n%s\nvs\n%s", i, gotEvents[i], refEvents[i])
		}
	}
	m2.Close()

	// Third incarnation: the re-run journaled submitted/running/events again
	// under the same IDs and sequence numbers; the reduction must be the
	// terminal job, not a second execution.
	m3 := NewManager(Options{DataDir: "/data", FS: mem, Logf: t.Logf})
	defer m3.Close()
	r3, err := m3.Get(j1.ID)
	if err != nil {
		t.Fatal(err)
	}
	s3 := r3.Snapshot()
	if s3.Status != StatusSucceeded || !sameBest(s3.Result.Best, refSnap.Result.Best) {
		t.Fatalf("third incarnation diverged: %+v", s3)
	}
	if got := encodeEvents(t, r3); len(got) != len(refEvents) {
		t.Fatalf("third incarnation restored %d events, want %d", len(got), len(refEvents))
	}
}

// TestRecoveryCancelledMidRunSettles covers the journal shape where a cancel
// request landed but the process died before the terminal record: recovery
// must settle the job as cancelled (keeping its events) instead of
// re-executing it to completion, and must journal the settlement so the next
// recovery restores it directly.
func TestRecoveryCancelledMidRunSettles(t *testing.T) {
	mem := faultfs.NewMem(faultfs.Faults{})
	jn, err := journal.Open("/data/journal", journal.Options{FS: mem})
	if err != nil {
		t.Fatal(err)
	}
	spec, _ := json.Marshal(quickSpec(100000))
	ev0, _ := nasaic.EncodeEvent(nasaic.Event{Episode: 0, Reward: 0.5})
	ev1, _ := nasaic.EncodeEvent(nasaic.Event{Episode: 1, Reward: 0.75, Feasible: true})
	for _, rec := range []journal.Record{
		{Type: journal.TypeSubmitted, Job: "job-1", Time: time.Now(), Spec: spec},
		{Type: journal.TypeRunning, Job: "job-1", Time: time.Now()},
		{Type: journal.TypeEvent, Job: "job-1", Seq: 0, Event: ev0},
		{Type: journal.TypeEvent, Job: "job-1", Seq: 1, Event: ev1},
		{Type: journal.TypeCancel, Job: "job-1"},
	} {
		if err := jn.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := jn.Close(); err != nil {
		t.Fatal(err)
	}

	m1 := NewManager(Options{DataDir: "/data", FS: mem, Logf: t.Logf})
	j, err := m1.Get("job-1")
	if err != nil {
		t.Fatal(err)
	}
	snap := j.Snapshot()
	if snap.Status != StatusCancelled {
		t.Fatalf("status %s, want cancelled (not re-executed)", snap.Status)
	}
	if snap.Error == "" {
		t.Fatal("settled cancellation lost its error")
	}
	evs, seq, _ := j.Events(0)
	if seq != 0 || len(evs) != 2 || evs[1].Reward != 0.75 || !evs[1].Feasible {
		t.Fatalf("settled job lost events: seq %d, %+v", seq, evs)
	}
	m1.Close()

	// The settlement was journaled: the next recovery sees a terminal job.
	m2 := NewManager(Options{DataDir: "/data", FS: mem, Logf: t.Logf})
	defer m2.Close()
	j2, err := m2.Get("job-1")
	if err != nil {
		t.Fatal(err)
	}
	if st := j2.Snapshot().Status; st != StatusCancelled {
		t.Fatalf("second recovery: status %s, want cancelled", st)
	}
	if evs, _, _ := j2.Events(0); len(evs) != 2 {
		t.Fatalf("second recovery lost events: %d", len(evs))
	}
}

// TestRecoveryDropsUndecodableSpec pins degradation over refusal: a journal
// whose job spec does not decode must not wedge the manager — the job is
// dropped with a warning and everything else recovers.
func TestRecoveryDropsUndecodableSpec(t *testing.T) {
	mem := faultfs.NewMem(faultfs.Faults{})
	jn, err := journal.Open("/data/journal", journal.Options{FS: mem})
	if err != nil {
		t.Fatal(err)
	}
	good, _ := json.Marshal(quickSpec(2))
	for _, rec := range []journal.Record{
		{Type: journal.TypeSubmitted, Job: "job-1", Spec: json.RawMessage(`{"workload":42}`)},
		{Type: journal.TypeSubmitted, Job: "job-2", Spec: good},
		{Type: journal.TypeFinished, Job: "job-2", Status: "failed", Error: "boom"},
	} {
		if err := jn.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	jn.Close()

	var warned bool
	m := NewManager(Options{DataDir: "/data", FS: mem, Logf: func(format string, args ...any) {
		warned = true
		t.Logf(format, args...)
	}})
	defer m.Close()
	if _, err := m.Get("job-1"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("undecodable job resurrected: err = %v", err)
	}
	if !warned {
		t.Fatal("dropping a job must warn through Logf")
	}
	j2, err := m.Get("job-2")
	if err != nil {
		t.Fatal(err)
	}
	snap := j2.Snapshot()
	if snap.Status != StatusFailed || snap.Error != "boom" {
		t.Fatalf("job-2: %+v", snap)
	}
}

// TestRecoverySettlesInvalidSpec: a journaled pending spec the engine
// refuses, here the φ that used to kill the daemon, settles failed on
// restart instead of executing, and the settlement is durable.
func TestRecoverySettlesInvalidSpec(t *testing.T) {
	mem := faultfs.NewMem(faultfs.Faults{})
	jn, err := journal.Open("/data/journal", journal.Options{FS: mem})
	if err != nil {
		t.Fatal(err)
	}
	rec := journal.Record{Type: journal.TypeSubmitted, Job: "job-1", Spec: json.RawMessage(unboundedHWStepsSpec)}
	if err := jn.Append(rec); err != nil {
		t.Fatal(err)
	}
	jn.Close()

	var runs atomic.Int32
	run := func(context.Context, *Job) (*nasaic.Result, error) {
		runs.Add(1)
		return nil, nil
	}
	for restart := 1; restart <= 2; restart++ {
		m := NewManager(Options{DataDir: "/data", FS: mem, Logf: t.Logf, RunJob: run})
		j, err := m.Get("job-1")
		if err != nil {
			t.Fatalf("restart %d: %v", restart, err)
		}
		if snap := j.Snapshot(); snap.Status != StatusFailed || !strings.Contains(snap.Error, "HWSteps") {
			t.Fatalf("restart %d: status %s (%q), want failed naming HWSteps", restart, snap.Status, snap.Error)
		}
		m.Close()
	}
	if n := runs.Load(); n != 0 {
		t.Fatalf("invalid spec executed %d times", n)
	}
}

// TestSubmitCloseHammer races submissions against Close under the race
// detector: every Submit must either complete fully (a journaled, terminal
// job) or fail with the clean ErrClosed sentinel — never a panic, a wedged
// waitgroup or a half-registered job.
func TestSubmitCloseHammer(t *testing.T) {
	m := NewManager(Options{MaxConcurrent: 2, DataDir: t.TempDir(), Logf: t.Logf})

	const workers = 8
	var (
		wg        sync.WaitGroup
		mu        sync.Mutex
		submitted []*Job
	)
	start := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for {
				j, err := m.Submit(quickSpec(1))
				if err != nil {
					if !errors.Is(err, ErrClosed) {
						t.Errorf("Submit after close: %v, want ErrClosed", err)
					}
					return
				}
				mu.Lock()
				submitted = append(submitted, j)
				mu.Unlock()
			}
		}()
	}
	close(start)
	time.Sleep(20 * time.Millisecond)
	m.Close()
	wg.Wait()

	// Submissions accepted before Close must all be terminal now (Close
	// drains), and Submit must keep returning the sentinel afterwards.
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	for _, j := range submitted {
		if err := j.Wait(ctx); err != nil {
			t.Fatalf("job %s not terminal after Close: %v", j.ID, err)
		}
	}
	if _, err := m.Submit(quickSpec(1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after Close: %v, want ErrClosed", err)
	}
	t.Logf("hammer: %d submissions accepted before close", len(submitted))
}

// TestHTTPSubmitAfterClose pins the HTTP mapping of the sentinel: a closed
// manager answers POST /v1/jobs with 503, not a hang or a 500.
func TestHTTPSubmitAfterClose(t *testing.T) {
	m := NewManager(Options{})
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()
	m.Close()

	body, _ := json.Marshal(quickSpec(1))
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("POST after Close: status %d, want 503", resp.StatusCode)
	}
}
