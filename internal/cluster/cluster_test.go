package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"nasaic/internal/jobs"
	"nasaic/pkg/nasaic"
)

const testKey = "cluster-test-key"

// testWorker is one worker replica under test: a real jobs.Manager behind
// the worker handler on an httptest listener.
type testWorker struct {
	m   *jobs.Manager
	srv *httptest.Server
}

// kill simulates abrupt worker death: live connections (the coordinator's
// SSE streams included) are severed mid-frame and the listener stops
// accepting, with no graceful cancel — from the coordinator's side this is
// indistinguishable from a crashed process. The manager keeps running so
// cleanup stays orderly.
func (w *testWorker) kill() {
	w.srv.Listener.Close()
	w.srv.CloseClientConnections()
}

// startWorker boots a worker replica. opts.Executor, when set (fakeRun),
// substitutes deterministic fake work for the real engine
// (scheduling-focused tests); leaving it nil runs real explorations.
func startWorker(t testing.TB, opts jobs.Options) *testWorker {
	t.Helper()
	m := jobs.NewManager(opts)
	srv := httptest.NewServer(NewWorkerHandler(m, testKey))
	w := &testWorker{m: m, srv: srv}
	t.Cleanup(func() { m.Close() })
	return w
}

// execFunc adapts a plain function to the jobs.Executor interface.
type execFunc func(ctx context.Context, j *jobs.Job) (*nasaic.Result, error)

func (f execFunc) Execute(ctx context.Context, j *jobs.Job) (*nasaic.Result, error) {
	return f(ctx, j)
}

// fakeRun is the deterministic stand-in engine for scheduling and failover
// tests: it emits one synthetic (seed-derived, bit-reproducible) event per
// episode at the given pace, honours cancellation, and finishes with a
// result carrying the episode count. Re-running the same spec anywhere
// reproduces the identical event and result bytes — the same property the
// real engine's determinism suite pins.
func fakeRun(pace time.Duration) execFunc {
	return func(ctx context.Context, j *jobs.Job) (*nasaic.Result, error) {
		for i := 0; i < j.Spec.Episodes; i++ {
			select {
			case <-time.After(pace):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			j.EmitEvent(i, fakeEvent(j.Spec.Seed, i))
		}
		return &nasaic.Result{Workload: j.Spec.Workload, Episodes: j.Spec.Episodes}, nil
	}
}

func fakeEvent(seed int64, i int) nasaic.Event {
	return nasaic.Event{
		Episode:  i,
		Reward:   float64(seed*1000+int64(i)) / 7,
		Feasible: i%2 == 0,
		HWEvals:  i + 1,
	}
}

// testCoordinator wires a coordinator + manager + public handler over the
// given workers, with intervals shrunk so failovers happen in milliseconds.
func testCoordinator(t testing.TB, workers []*testWorker, mopts jobs.Options) (*Coordinator, *jobs.Manager, *httptest.Server) {
	t.Helper()
	urls := make([]string, len(workers))
	for i, w := range workers {
		urls[i] = w.srv.URL
	}
	coord, err := New(Config{
		Workers:       urls,
		Key:           testKey,
		ProbeInterval: 20 * time.Millisecond,
		StreamTimeout: 5 * time.Second,
		RetryDelay:    10 * time.Millisecond,
		StreamRetries: 3,
		Logf:          t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	mopts.Executor = coord
	m := jobs.NewManager(mopts)
	srv := httptest.NewServer(NewCoordinatorHandler(m, nil, coord))
	t.Cleanup(func() {
		srv.Close()
		m.Close()
		coord.Close()
	})
	return coord, m, srv
}

func postJob(t testing.TB, url string, spec jobs.Spec) jobs.Snapshot {
	t.Helper()
	body, _ := json.Marshal(spec)
	resp, err := http.Post(url+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v1/jobs: status %d", resp.StatusCode)
	}
	var snap jobs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	return snap
}

// readFrames parses SSE frames off r until the reader errors (stream end)
// or maxFrames arrive. Heartbeat comments are skipped.
func readFrames(r *bufio.Reader, maxFrames int) []sseFrame {
	var frames []sseFrame
	cur := sseFrame{}
	for len(frames) < maxFrames {
		line, err := r.ReadString('\n')
		if err != nil {
			break
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case line == "":
			if cur.event != "" {
				frames = append(frames, cur)
				cur = sseFrame{}
			}
		case strings.HasPrefix(line, "event: "):
			cur.event = line[len("event: "):]
		case strings.HasPrefix(line, "id: "):
			fmt.Sscanf(line[len("id: "):], "%d", &cur.id)
		case strings.HasPrefix(line, "data: "):
			cur.data = []byte(line[len("data: "):])
		}
	}
	return frames
}

// waitHealthy blocks until every worker reports healthy at the coordinator.
func waitHealthy(t testing.TB, coord *Coordinator, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		healthy := 0
		for _, ws := range coord.Status() {
			if ws.Healthy {
				healthy++
			}
		}
		if healthy >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d workers healthy", healthy, n)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestClusterDeterminism is the cross-replica acceptance check: a 2-worker
// cluster running the QuickBudget spec through real engines must be
// bit-identical to a standalone run — the terminal result field for field,
// and every SSE `data:` payload byte-for-byte equal to the canonical
// EncodeEvent wire bytes of the direct run's events (the encoding shared by
// the journal). A second job keeps both replicas busy and proves placement
// spreads load.
func TestClusterDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("QuickBudget cluster e2e skipped in -short mode")
	}
	episodes := nasaic.QuickBudget().Episodes

	w1 := startWorker(t, jobs.Options{MaxConcurrent: 2, ShareMemos: true})
	w2 := startWorker(t, jobs.Options{MaxConcurrent: 2, ShareMemos: true})
	coord, _, srv := testCoordinator(t, []*testWorker{w1, w2}, jobs.Options{MaxConcurrent: 4})
	waitHealthy(t, coord, 2)

	// Two jobs so the least-loaded placement exercises both replicas.
	snap1 := postJob(t, srv.URL, jobs.Spec{Workload: "W3", Episodes: episodes, Seed: 1})
	snap2 := postJob(t, srv.URL, jobs.Spec{Workload: "W3", Episodes: episodes, Seed: 2})

	// Stream job 1's full feed through the coordinator.
	resp, err := http.Get(srv.URL + "/v1/jobs/" + snap1.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	frames := readFrames(bufio.NewReader(resp.Body), episodes+2)
	if len(frames) != episodes+1 {
		t.Fatalf("got %d SSE frames, want %d episodes + done", len(frames), episodes)
	}

	// The standalone reference: same spec, direct through the public API,
	// collecting the canonical event stream.
	var wantEvents []nasaic.Event
	want, err := nasaic.Run(context.Background(),
		nasaic.WithWorkload("W3"),
		nasaic.WithEpisodes(episodes),
		nasaic.WithSeed(1),
		nasaic.WithEventHandler(func(e nasaic.Event) { wantEvents = append(wantEvents, e) }),
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(wantEvents) != episodes {
		t.Fatalf("reference run produced %d events, want %d", len(wantEvents), episodes)
	}
	for i, f := range frames[:episodes] {
		if f.event != "episode" || f.id != i {
			t.Fatalf("frame %d: event %q id %d", i, f.event, f.id)
		}
		wire, err := nasaic.EncodeEvent(wantEvents[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(f.data, wire) {
			t.Fatalf("frame %d diverged from standalone wire bytes:\n got %s\nwant %s", i, f.data, wire)
		}
	}

	done := frames[episodes]
	if done.event != "done" || done.id != episodes {
		t.Fatalf("last frame: event %q id %d, want done %d", done.event, done.id, episodes)
	}
	var final jobs.Snapshot
	if err := json.Unmarshal(done.data, &final); err != nil {
		t.Fatal(err)
	}
	if final.Status != jobs.StatusSucceeded {
		t.Fatalf("final status %s (%s)", final.Status, final.Error)
	}
	got := final.Result.Best
	if got.Design.String() != want.Best.Design.String() ||
		got.WeightedAccuracy != want.Best.WeightedAccuracy ||
		got.LatencyCycles != want.Best.LatencyCycles ||
		got.EnergyNJ != want.Best.EnergyNJ ||
		got.AreaUM2 != want.Best.AreaUM2 {
		t.Fatalf("cluster job diverged from standalone run:\n%+v\nvs\n%+v", got, want.Best)
	}
	if len(final.Result.Explored) != len(want.Explored) {
		t.Fatalf("explored count %d vs %d", len(final.Result.Explored), len(want.Explored))
	}

	// Job 2 settles too, and placement used both replicas.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	for _, w := range []*testWorker{w1, w2} {
		for _, j := range w.m.List() {
			if err := j.Wait(ctx); err != nil {
				t.Fatal(err)
			}
		}
	}
	if n1, n2 := len(w1.m.List()), len(w2.m.List()); n1 == 0 || n2 == 0 {
		t.Fatalf("placement did not spread: worker1 ran %d jobs, worker2 %d", n1, n2)
	}
	_ = snap2
}

// TestWorkerHandlerAuth pins the worker's internal surface: /healthz stays
// open with the bare standalone body, /v1 is gated by the cluster shared key
// (401 challenge without a credential, 403 with the wrong one), and the
// load probe reports the manager's live numbers.
func TestWorkerHandlerAuth(t *testing.T) {
	w := startWorker(t, jobs.Options{MaxConcurrent: 3, Executor: fakeRun(time.Millisecond)})

	resp, err := http.Get(w.srv.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("open healthz: %v %v", err, resp)
	}
	var bare map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&bare); err != nil || bare["status"] != "ok" {
		t.Fatalf("healthz body %v (%v), want bare standalone contract", bare, err)
	}
	resp.Body.Close()

	get := func(path, key string) *http.Response {
		t.Helper()
		req, _ := http.NewRequest(http.MethodGet, w.srv.URL+path, nil)
		if key != "" {
			req.Header.Set("Authorization", "Bearer "+key)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	if resp := get("/v1/jobs", ""); resp.StatusCode != http.StatusUnauthorized ||
		resp.Header.Get("WWW-Authenticate") == "" {
		t.Fatalf("missing key: status %d, WWW-Authenticate %q", resp.StatusCode, resp.Header.Get("WWW-Authenticate"))
	} else {
		resp.Body.Close()
	}
	if resp := get("/v1/cluster/health", "wrong-key"); resp.StatusCode != http.StatusForbidden {
		t.Fatalf("wrong key: status %d, want 403", resp.StatusCode)
	} else {
		resp.Body.Close()
	}

	resp = get("/v1/cluster/health", testKey)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("health with key: status %d", resp.StatusCode)
	}
	var h workerHealth
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Slots != 3 {
		t.Fatalf("health payload %+v, want ok with 3 slots", h)
	}
}

// TestWorkerHandlerNoKey pins the trusted-network mode: an empty cluster key
// turns the gate off entirely.
func TestWorkerHandlerNoKey(t *testing.T) {
	m := jobs.NewManager(jobs.Options{Executor: fakeRun(time.Millisecond)})
	defer m.Close()
	srv := httptest.NewServer(NewWorkerHandler(m, ""))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ungated /v1/jobs: status %d", resp.StatusCode)
	}
}

// TestCoordinatorHealthz pins the coordinator's /healthz upgrade: a JSON
// report naming every worker with health and load, replacing the bare-200
// body only on the coordinator.
func TestCoordinatorHealthz(t *testing.T) {
	w1 := startWorker(t, jobs.Options{MaxConcurrent: 2, Executor: fakeRun(time.Millisecond)})
	w2 := startWorker(t, jobs.Options{MaxConcurrent: 2, Executor: fakeRun(time.Millisecond)})
	coord, _, srv := testCoordinator(t, []*testWorker{w1, w2}, jobs.Options{MaxConcurrent: 4})
	waitHealthy(t, coord, 2)

	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h coordinatorHealth
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Role != "coordinator" || len(h.Workers) != 2 {
		t.Fatalf("healthz payload %+v", h)
	}
	for i, ws := range h.Workers {
		if !ws.Healthy || ws.Slots != 2 {
			t.Fatalf("worker %d not reported healthy with 2 slots: %+v", i, ws)
		}
	}
}

// TestPoolPlacement pins the placement rule: fewest in-flight jobs wins,
// config order breaks ties, unhealthy workers are skipped, and pick blocks
// until a worker recovers.
func TestPoolPlacement(t *testing.T) {
	a := &worker{name: "a", healthy: true, inflight: 2}
	b := &worker{name: "b", healthy: true, inflight: 1}
	c := &worker{name: "c", healthy: false}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	p := &pool{ctx: ctx, cancel: cancel, workers: []*worker{a, b, c}, changed: make(chan struct{})}

	if w, err := p.pick(context.Background()); err != nil || w != b {
		t.Fatalf("pick = %v (%v), want b (least loaded)", w, err)
	}
	// b now ties a at 2: config order prefers a.
	if w, err := p.pick(context.Background()); err != nil || w != a {
		t.Fatalf("pick = %v (%v), want a (config-order tie-break)", w, err)
	}

	// No healthy worker: pick blocks, then resumes when one recovers.
	a.healthy, b.healthy = false, false
	got := make(chan *worker, 1)
	go func() {
		w, _ := p.pick(context.Background())
		got <- w
	}()
	select {
	case w := <-got:
		t.Fatalf("pick returned %v with no healthy worker", w.name)
	case <-time.After(20 * time.Millisecond):
	}
	p.mu.Lock()
	c.healthy = true
	p.broadcastLocked()
	p.mu.Unlock()
	select {
	case w := <-got:
		if w != c {
			t.Fatalf("pick = %v, want the recovered c", w.name)
		}
	case <-time.After(time.Second):
		t.Fatal("pick never woke after recovery")
	}

	// Cancellation unblocks a starved pick.
	cctx, ccancel := context.WithCancel(context.Background())
	ccancel()
	a.healthy, b.healthy, c.healthy = false, false, false
	if _, err := p.pick(cctx); err == nil {
		t.Fatal("pick ignored cancelled context")
	}
}

// TestPoolBackoff pins the probe backoff: doubling per consecutive failure,
// bounded at 16× the interval.
func TestPoolBackoff(t *testing.T) {
	p := &pool{interval: 100 * time.Millisecond}
	want := []time.Duration{100, 200, 400, 800, 1600, 1600, 1600}
	for i, w := range want {
		if got := p.backoff(i + 1); got != w*time.Millisecond {
			t.Fatalf("backoff(%d) = %v, want %v", i+1, got, w*time.Millisecond)
		}
	}
}
