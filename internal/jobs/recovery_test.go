package jobs

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
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

// jobStream reads a terminal job's whole SSE stream, from seq 0 through the
// done frame, over the manager's HTTP handler.
func jobStream(t *testing.T, m *Manager, id string) []sseFrame {
	t.Helper()
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	return readSSE(t, bufio.NewReader(resp.Body), math.MaxInt)
}

// requireSameStream checks a job's SSE stream against an uncrashed
// reference stream of the same spec: every episode frame byte for byte
// (event, id and payload), and a done frame under the same id carrying the
// same terminal status and error and an equal result. The rest of the done
// frame (timestamps, job ID) may differ.
func requireSameStream(t *testing.T, label string, got, want []sseFrame) {
	t.Helper()
	if len(want) == 0 || want[len(want)-1].event != "done" {
		t.Fatalf("%s: reference stream does not end in a done frame (%d frames)", label, len(want))
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d frames, want %d", label, len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if g.event != w.event || g.id != w.id {
			t.Fatalf("%s: frame %d is %s id %s, want %s id %s", label, i, g.event, g.id, w.event, w.id)
		}
		if w.event == "done" {
			gs, ws := doneOutcomeOf(t, g), doneOutcomeOf(t, w)
			if ws.Status == "" {
				t.Fatalf("%s: reference done frame has no status:\n%s", label, w.data)
			}
			if gs.Status != ws.Status || gs.Error != ws.Error || !bytes.Equal(gs.Result, ws.Result) {
				t.Fatalf("%s: done frame is %s %q, want %s %q (results equal: %v)", label,
					gs.Status, gs.Error, ws.Status, ws.Error, bytes.Equal(gs.Result, ws.Result))
			}
			continue
		}
		if !bytes.Equal(g.data, w.data) {
			t.Fatalf("%s: frame %d diverged:\n%s\nvs\n%s", label, i, g.data, w.data)
		}
	}
}

// doneOutcome is the terminal status, error and result JSON a done frame's
// snapshot carries.
type doneOutcome struct {
	Status Status          `json:"status"`
	Error  string          `json:"error"`
	Result json.RawMessage `json:"result"`
}

func doneOutcomeOf(t *testing.T, f sseFrame) doneOutcome {
	t.Helper()
	var o doneOutcome
	if err := json.Unmarshal(f.data, &o); err != nil {
		t.Fatalf("undecodable done frame: %v", err)
	}
	return o
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
// same datadir must restore both — statuses and SSE streams equal to the
// ones served before the restart (event rings from the terminal records, so
// Last-Event-ID replay spans the restart) — and continue the job ID
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
	wantDone := jobStream(t, m1, done.ID)

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
	wantVictim := jobStream(t, m1, victim.ID)
	m1.Close()

	m2 := NewManager(Options{MaxConcurrent: 2, DataDir: dir, Logf: t.Logf})
	defer m2.Close()

	r1, err := m2.Get(done.ID)
	if err != nil {
		t.Fatalf("restored job %s missing: %v", done.ID, err)
	}
	if rs := r1.Snapshot(); rs.Status != StatusSucceeded || rs.Episodes != 10 {
		t.Fatalf("restored snapshot: %+v", rs)
	}
	requireSameStream(t, "restored succeeded job", jobStream(t, m2, done.ID), wantDone)

	r2, err := m2.Get(victim.ID)
	if err != nil {
		t.Fatalf("restored job %s missing: %v", victim.ID, err)
	}
	if st := r2.Snapshot().Status; st != StatusCancelled {
		t.Fatalf("restored cancelled job has status %s", st)
	}
	requireSameStream(t, "restored cancelled job", jobStream(t, m2, victim.ID), wantVictim)

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
// from its spec, serving an SSE stream equal to an uncrashed reference run's,
// and that a third manager then restores the re-executed run as directly
// terminal, stream included.
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
	refStream := jobStream(t, m0, ref.ID)
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
	requireSameStream(t, "re-executed job", jobStream(t, m2, j1.ID), refStream)
	m2.Close()

	// Third incarnation: the re-run's terminal record carries its ring; the
	// reduction must be the terminal job, not a second execution.
	m3 := NewManager(Options{DataDir: "/data", FS: mem, Logf: t.Logf, Executor: execFunc(
		func(context.Context, *Job) (*nasaic.Result, error) {
			t.Error("a terminal job executed again")
			return nil, nil
		})})
	defer m3.Close()
	j3, err := m3.Get(j1.ID)
	if err != nil {
		t.Fatal(err)
	}
	if s3 := j3.Snapshot(); s3.Status != StatusSucceeded {
		t.Fatalf("third incarnation: %s (%s)", s3.Status, s3.Error)
	}
	requireSameStream(t, "third incarnation", jobStream(t, m3, j1.ID), refStream)
}

// TestRecoveryCancelledMidRunSettles covers the journal shape older builds
// wrote when a cancel request landed but the process died before the
// terminal record: running and per-episode event records, then the cancel.
// Recovery must settle the job as cancelled (keeping its events) instead of
// re-executing it to completion, and must journal the settlement, ring
// included, so the next recovery restores it directly.
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

// TestRecoveryCancelBeforeFinishSettlesEmpty is the current journal shape
// of the same crash: a job cancelled mid-run whose process died before the
// terminal record leaves only its submitted and cancel records, because
// episode events reach the journal on the terminal record alone. Recovery
// still settles the job as cancelled without running it, but the events the
// run streamed before the crash are lost: the ring is empty and the SSE
// stream serves only the done frame. Rebuilding them would mean re-executing
// a job its client cancelled.
func TestRecoveryCancelBeforeFinishSettlesEmpty(t *testing.T) {
	mem := faultfs.NewMem(faultfs.Faults{})
	release := make(chan struct{})
	m1 := NewManager(Options{DataDir: "/data", FS: mem, Logf: t.Logf, Executor: execFunc(
		func(ctx context.Context, j *Job) (*nasaic.Result, error) {
			for i := 0; i < 3; i++ {
				j.EmitEvent(i, nasaic.Event{Episode: i, Reward: 0.5})
			}
			<-release // hold the terminal record back until the crash
			return nil, ctx.Err()
		})})
	j1, err := m1.Submit(quickSpec(100000))
	if err != nil {
		t.Fatal(err)
	}
	for j1.NextSeq() < 3 {
		time.Sleep(time.Millisecond)
	}
	if _, err := m1.Cancel(j1.ID); err != nil {
		t.Fatal(err)
	}
	// The cancel record is fsynced before Cancel returns; power fails now,
	// so the terminal record never reaches the disk.
	mem.Crash()
	close(release)
	waitTerminal(t, j1, time.Minute)
	m1.Close()

	mem.Reboot()
	var runs atomic.Int32
	for restart := 1; restart <= 2; restart++ {
		m := NewManager(Options{DataDir: "/data", FS: mem, Logf: t.Logf, Executor: execFunc(
			func(context.Context, *Job) (*nasaic.Result, error) {
				runs.Add(1)
				return nil, nil
			})})
		j, err := m.Get(j1.ID)
		if err != nil {
			t.Fatalf("restart %d: %v", restart, err)
		}
		if snap := j.Snapshot(); snap.Status != StatusCancelled || snap.Episodes != 0 {
			t.Fatalf("restart %d: status %s with %d episodes, want cancelled with none", restart, snap.Status, snap.Episodes)
		}
		frames := jobStream(t, m, j1.ID)
		if len(frames) != 1 || frames[0].event != "done" || frames[0].id != "0" {
			t.Fatalf("restart %d: stream %+v, want only the done frame", restart, frames)
		}
		m.Close()
	}
	if n := runs.Load(); n != 0 {
		t.Fatalf("cancelled job executed %d times after the crash", n)
	}
}

// TestJournalWriteBudget pins what a local job costs the journal: a
// 5-episode job appends exactly its submitted and finished records (one
// write each, counted on the fault-injecting filesystem), so a per-episode
// or per-transition record cannot creep back. The finished record carries
// the ring: a restarted manager serves all five episodes.
func TestJournalWriteBudget(t *testing.T) {
	mem := faultfs.NewMem(faultfs.Faults{})
	m := NewManager(Options{DataDir: "/data", FS: mem, Logf: t.Logf})
	before := mem.WriteOps()
	j, err := m.Submit(quickSpec(5))
	if err != nil {
		t.Fatal(err)
	}
	if snap := waitTerminal(t, j, 2*time.Minute); snap.Status != StatusSucceeded || snap.Episodes != 5 {
		t.Fatalf("job: %s with %d episodes (%s)", snap.Status, snap.Episodes, snap.Error)
	}
	if n := mem.WriteOps() - before; n != 2 {
		t.Fatalf("a 5-episode job made %d journal writes, want 2 (submitted, finished)", n)
	}
	want := jobStream(t, m, j.ID)
	m.Close()

	m2 := NewManager(Options{DataDir: "/data", FS: mem, Logf: t.Logf})
	defer m2.Close()
	requireSameStream(t, "restored job", jobStream(t, m2, j.ID), want)
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
		m := NewManager(Options{DataDir: "/data", FS: mem, Logf: t.Logf, Executor: execFunc(run)})
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
