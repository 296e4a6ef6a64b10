package jobs

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

	"nasaic/pkg/nasaic"
)

// sseFrame is one parsed Server-Sent Event.
type sseFrame struct {
	event string
	id    string
	data  []byte
}

// readSSE parses frames until the stream ends or maxFrames arrive.
func readSSE(t *testing.T, r *bufio.Reader, maxFrames int) []sseFrame {
	t.Helper()
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
			if len(cur.data) > 0 || cur.event != "" {
				frames = append(frames, cur)
				cur = sseFrame{}
			}
		case strings.HasPrefix(line, "event: "):
			cur.event = line[len("event: "):]
		case strings.HasPrefix(line, "id: "):
			cur.id = line[len("id: "):]
		case strings.HasPrefix(line, "data: "):
			cur.data = []byte(line[len("data: "):])
		}
	}
	return frames
}

func postJob(t *testing.T, url string, spec Spec) Snapshot {
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
	var snap Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	return snap
}

func getJob(t *testing.T, url, id string) Snapshot {
	t.Helper()
	resp, err := http.Get(url + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/jobs/%s: status %d", id, resp.StatusCode)
	}
	var snap Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	return snap
}

// TestHTTPEndToEnd is the acceptance smoke: submit a QuickBudget-sized job,
// stream its episode events over SSE to completion, and require the final
// solution to be bit-identical to the same exploration run directly through
// the public API (the exact code path behind cmd/nasaic).
func TestHTTPEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("QuickBudget e2e skipped in -short mode")
	}
	episodes := nasaic.QuickBudget().Episodes // 150: the QuickBudget β

	m := NewManager(Options{MaxConcurrent: 2, ShareMemos: true})
	defer m.Close()
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()

	// Health endpoint.
	hr, err := http.Get(srv.URL + "/healthz")
	if err != nil || hr.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", err, hr)
	}
	hr.Body.Close()

	snap := postJob(t, srv.URL, Spec{Workload: "W3", Episodes: episodes, Seed: 1})

	// Stream the full SSE feed.
	resp, err := http.Get(srv.URL + "/v1/jobs/" + snap.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events content-type %q", ct)
	}
	frames := readSSE(t, bufio.NewReader(resp.Body), episodes+2)

	if len(frames) != episodes+1 {
		t.Fatalf("got %d SSE frames, want %d episodes + done", len(frames), episodes)
	}
	for i, f := range frames[:episodes] {
		if f.event != "episode" {
			t.Fatalf("frame %d is %q, want episode", i, f.event)
		}
		ev, err := nasaic.DecodeEvent(f.data)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if ev.Episode != i || f.id != fmt.Sprint(i) {
			t.Fatalf("frame %d carries episode %d (id %s)", i, ev.Episode, f.id)
		}
	}
	doneFrame := frames[episodes]
	if doneFrame.event != "done" {
		t.Fatalf("last frame is %q, want done", doneFrame.event)
	}
	// The done id is the stable episode count: a client that stores it and
	// reconnects must get the same done frame under the same id, not a
	// second done under the next live sequence number.
	if doneFrame.id != fmt.Sprint(episodes) {
		t.Fatalf("done id %s, want stable %d", doneFrame.id, episodes)
	}
	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/v1/jobs/"+snap.ID+"/events", nil)
	req.Header.Set("Last-Event-ID", doneFrame.id)
	reconn, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	redone := readSSE(t, bufio.NewReader(reconn.Body), 2)
	reconn.Body.Close()
	if len(redone) != 1 || redone[0].event != "done" || redone[0].id != doneFrame.id {
		t.Fatalf("reconnect after done saw %+v, want one done with id %s", redone, doneFrame.id)
	}
	var final Snapshot
	if err := json.Unmarshal(doneFrame.data, &final); err != nil {
		t.Fatal(err)
	}
	if final.Status != StatusSucceeded {
		t.Fatalf("final status %s (%s)", final.Status, final.Error)
	}
	if final.Result == nil || final.Result.Best == nil {
		t.Fatal("final snapshot missing result")
	}

	// The same exploration through the public API (cmd/nasaic's code path)
	// must be bit-identical.
	want, err := nasaic.Run(context.Background(),
		nasaic.WithWorkload("W3"),
		nasaic.WithEpisodes(episodes),
		nasaic.WithSeed(1),
	)
	if err != nil {
		t.Fatal(err)
	}
	got := final.Result.Best
	if got.Design.String() != want.Best.Design.String() ||
		got.WeightedAccuracy != want.Best.WeightedAccuracy ||
		got.LatencyCycles != want.Best.LatencyCycles ||
		got.EnergyNJ != want.Best.EnergyNJ ||
		got.AreaUM2 != want.Best.AreaUM2 {
		t.Fatalf("server job diverged from direct run:\n%+v\nvs\n%+v", got, want.Best)
	}
	if len(final.Result.Explored) != len(want.Explored) {
		t.Fatalf("explored count %d vs %d", len(final.Result.Explored), len(want.Explored))
	}

	// GET view agrees with the done frame.
	viaGet := getJob(t, srv.URL, snap.ID)
	if viaGet.Status != StatusSucceeded || viaGet.Result.Best.WeightedAccuracy != got.WeightedAccuracy {
		t.Fatalf("GET snapshot diverged: %+v", viaGet)
	}
}

// TestHTTPReplayGapReset pins the event-ring eviction contract: a stream
// whose resume point predates the bounded ring's start must begin with an
// explicit `reset` frame naming the first retained sequence number (and how
// many events were lost) instead of silently snapping forward, and the
// terminal done frame must carry the stable episode-count id on every
// reconnect.
func TestHTTPReplayGapReset(t *testing.T) {
	const episodes, ring = 9, 4
	m := NewManager(Options{MaxConcurrent: 1, EventBuffer: ring})
	defer m.Close()
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()

	snap := postJob(t, srv.URL, Spec{Workload: "W3", Episodes: episodes, Seed: 1, Workers: 1})
	j, err := m.Get(snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}

	// A fresh connect (no Last-Event-ID, resume point 0) after the ring
	// evicted episodes 0..4: reset frame first, then the retained tail, then
	// the stable done frame.
	stream := func(lastEventID string, maxFrames int) []sseFrame {
		t.Helper()
		req, _ := http.NewRequest(http.MethodGet, srv.URL+"/v1/jobs/"+snap.ID+"/events", nil)
		if lastEventID != "" {
			req.Header.Set("Last-Event-ID", lastEventID)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		return readSSE(t, bufio.NewReader(resp.Body), maxFrames)
	}

	frames := stream("", ring+3)
	if len(frames) != ring+2 {
		t.Fatalf("got %d frames, want reset + %d episodes + done", len(frames), ring)
	}
	first := episodes - ring
	if frames[0].event != "reset" {
		t.Fatalf("first frame is %q, want reset", frames[0].event)
	}
	var rf struct {
		FirstSeq int `json:"first_seq"`
		Missed   int `json:"missed"`
	}
	if err := json.Unmarshal(frames[0].data, &rf); err != nil {
		t.Fatal(err)
	}
	if rf.FirstSeq != first || rf.Missed != first {
		t.Fatalf("reset frame %+v, want first_seq=%d missed=%d", rf, first, first)
	}
	if frames[0].id != fmt.Sprint(first-1) {
		t.Fatalf("reset id %s, want %d (a reconnect from it resumes at first_seq)", frames[0].id, first-1)
	}
	for i, f := range frames[1 : 1+ring] {
		ev, err := nasaic.DecodeEvent(f.data)
		if err != nil {
			t.Fatal(err)
		}
		if f.event != "episode" || ev.Episode != first+i || f.id != fmt.Sprint(first+i) {
			t.Fatalf("frame %d: %s episode %d id %s, want episode %d", i, f.event, ev.Episode, f.id, first+i)
		}
	}
	done := frames[1+ring]
	if done.event != "done" || done.id != fmt.Sprint(episodes) {
		t.Fatalf("done frame %q id %s, want done id %d", done.event, done.id, episodes)
	}

	// A reconnect whose Last-Event-ID is still retained must NOT see a
	// reset, and the done id must be unchanged.
	frames = stream(fmt.Sprint(episodes-2), 3)
	if len(frames) != 2 || frames[0].event != "episode" || frames[0].id != fmt.Sprint(episodes-1) ||
		frames[1].event != "done" || frames[1].id != fmt.Sprint(episodes) {
		t.Fatalf("in-ring reconnect saw %+v, want episode %d + done %d", frames, episodes-1, episodes)
	}

	// A client that stored the done id and reconnects gets the same done
	// frame under the same id — not a second one under a shifted id.
	frames = stream(fmt.Sprint(episodes), 2)
	if len(frames) != 1 || frames[0].event != "done" || frames[0].id != fmt.Sprint(episodes) {
		t.Fatalf("post-done reconnect saw %+v, want a single done with id %d", frames, episodes)
	}

	// An evicted reconnect (Last-Event-ID inside the lost range) sees the
	// reset with the right missed count.
	frames = stream("1", ring+3)
	if len(frames) != ring+2 || frames[0].event != "reset" {
		t.Fatalf("evicted reconnect: %d frames, first %q; want reset + %d episodes + done",
			len(frames), frames[0].event, ring)
	}
	if err := json.Unmarshal(frames[0].data, &rf); err != nil {
		t.Fatal(err)
	}
	if rf.FirstSeq != first || rf.Missed != first-2 {
		t.Fatalf("evicted reconnect reset %+v, want first_seq=%d missed=%d", rf, first, first-2)
	}
}

// TestHTTPCancelMidRun submits a long job, streams a few events, cancels via
// DELETE, and expects the SSE stream to end with a cancelled done frame
// carrying the partial result.
func TestHTTPCancelMidRun(t *testing.T) {
	m := NewManager(Options{MaxConcurrent: 1})
	defer m.Close()
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()

	snap := postJob(t, srv.URL, Spec{Workload: "W3", Episodes: 100000, Seed: 1})

	resp, err := http.Get(srv.URL + "/v1/jobs/" + snap.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)

	// Read three episode frames to prove the run is streaming, then cancel.
	first := readSSE(t, br, 3)
	if len(first) != 3 {
		t.Fatalf("got %d initial frames", len(first))
	}
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/jobs/"+snap.ID, nil)
	dr, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dr.Body.Close()
	if dr.StatusCode != http.StatusAccepted {
		t.Fatalf("DELETE status %d", dr.StatusCode)
	}

	// Drain to the done frame; the stream must terminate.
	deadline := time.Now().Add(time.Minute)
	var done *sseFrame
	for done == nil {
		if time.Now().After(deadline) {
			t.Fatal("stream did not terminate after cancel")
		}
		frames := readSSE(t, br, 64)
		if len(frames) == 0 {
			break
		}
		for i := range frames {
			if frames[i].event == "done" {
				done = &frames[i]
				break
			}
		}
	}
	if done == nil {
		t.Fatal("no done frame after cancel")
	}
	var final Snapshot
	if err := json.Unmarshal(done.data, &final); err != nil {
		t.Fatal(err)
	}
	if final.Status != StatusCancelled {
		t.Fatalf("final status %s, want cancelled", final.Status)
	}
	if final.Result == nil || final.Result.Episodes <= 0 {
		t.Fatalf("cancelled job lost its partial result: %+v", final.Result)
	}
}

// unboundedHWStepsSpec once killed the daemon: the server accepted it, and
// the job's first episode asked for a 1+φ rollout slice the runtime cannot
// allocate, a fatal error no recover catches. It is journaled before it
// runs, so a restart ran it again.
const unboundedHWStepsSpec = `{"workload":"W3","episodes":1,"hw_steps":1099511627776}`

// TestHTTPRejectsUnboundedHWSteps: a spec the engine cannot run gets a 400
// before it is journaled or queued, and the daemon keeps serving. The status
// check does not stop the test, so a daemon that accepts the spec runs it
// while the follow-up job is in flight.
func TestHTTPRejectsUnboundedHWSteps(t *testing.T) {
	m := NewManager(Options{})
	defer m.Close()
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(unboundedHWStepsSpec))
	if err != nil {
		t.Fatal(err)
	}
	var apiErr apiError
	if err := json.NewDecoder(resp.Body).Decode(&apiErr); err != nil {
		t.Error(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(apiErr.Error, "HWSteps") {
		t.Errorf("unbounded hw_steps: status %d (%q), want 400 naming HWSteps", resp.StatusCode, apiErr.Error)
	}

	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after the rejected spec: status %d", resp.StatusCode)
	}
	hw := 1
	snap := postJob(t, srv.URL, Spec{Workload: "W3", Episodes: 2, HWSteps: &hw, Seed: 1, Workers: 1})
	j, err := m.Get(snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, j, 60*time.Second); st.Status != StatusSucceeded {
		t.Fatalf("job after the rejected spec: %+v", st)
	}
	if n := len(m.List()); n != 1 {
		t.Fatalf("%d jobs registered, want only the valid one", n)
	}
}

// unboundedWorkersSpec asks every evaluation batch of its job to start a
// hundred thousand goroutines, around the tenant's concurrency quota.
const unboundedWorkersSpec = `{"workload":"W3","episodes":1,"workers":100000}`

// TestHTTPRejectsUnboundedWorkers: a worker count past core's cap gets a 400
// naming Workers before the job is journaled or queued. The spec is only
// validated; nothing starts its goroutines.
func TestHTTPRejectsUnboundedWorkers(t *testing.T) {
	m := NewManager(Options{})
	defer m.Close()
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(unboundedWorkersSpec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var apiErr apiError
	if err := json.NewDecoder(resp.Body).Decode(&apiErr); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(apiErr.Error, "Workers") {
		t.Fatalf("unbounded workers: status %d (%q), want 400 naming Workers", resp.StatusCode, apiErr.Error)
	}
	if n := len(m.List()); n != 0 {
		t.Fatalf("%d jobs registered for a rejected spec", n)
	}
}

// TestHTTPErrors covers the JSON error envelope.
func TestHTTPErrors(t *testing.T) {
	m := NewManager(Options{})
	defer m.Close()
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(`{"workload":"W3","bogus":1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown field: status %d, want 400", resp.StatusCode)
	}
	resp, err = http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing workload: status %d, want 400", resp.StatusCode)
	}
	resp, err = http.Get(srv.URL + "/v1/jobs/job-404")
	if err != nil {
		t.Fatal(err)
	}
	var apiErr apiError
	if err := json.NewDecoder(resp.Body).Decode(&apiErr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound || apiErr.Error == "" {
		t.Fatalf("unknown job: status %d body %+v", resp.StatusCode, apiErr)
	}
}

// TestHTTPList covers the listing endpoint.
func TestHTTPList(t *testing.T) {
	m := NewManager(Options{MaxConcurrent: 1})
	defer m.Close()
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()

	a := postJob(t, srv.URL, Spec{Workload: "W3", Episodes: 2, Seed: 1, Workers: 1})
	b := postJob(t, srv.URL, Spec{Workload: "W3", Episodes: 2, Seed: 2, Workers: 1})
	resp, err := http.Get(srv.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list []Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 2 || list[0].ID != a.ID || list[1].ID != b.ID {
		t.Fatalf("list = %+v", list)
	}
}
