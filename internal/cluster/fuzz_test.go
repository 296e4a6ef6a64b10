package cluster

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"nasaic/internal/jobs"
)

// realFrames returns the SSE bytes jobs.NewHandler writes for a finished job
// of the given episode count: its replayed events (preceded by a reset frame
// when the ring evicted some) and the terminal done frame.
func realFrames(tb testing.TB, episodes, ring int) []byte {
	tb.Helper()
	m := jobs.NewManager(jobs.Options{EventBuffer: ring, Executor: fakeRun(0)})
	defer m.Close()
	j, err := m.Submit(jobs.Spec{Workload: "W3", Episodes: episodes, Seed: 7})
	if err != nil {
		tb.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := j.Wait(ctx); err != nil {
		tb.Fatal(err)
	}
	srv := httptest.NewServer(jobs.NewHandler(m))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/v1/jobs/" + j.ID + "/events")
	if err != nil {
		tb.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// FuzzStreamFrames serves arbitrary bytes as a worker's SSE event stream and
// follows it with client.stream the way the coordinator does, ending the
// stream at the first done frame. Whatever the bytes, the call must return
// without panicking, deliver only frames that name an event, and report
// success only after a done frame.
func FuzzStreamFrames(f *testing.F) {
	full := realFrames(f, 3, 16)
	reset := realFrames(f, 5, 2)
	for _, seed := range [][]byte{
		full,
		reset,
		full[:len(full)/2],
		full[:len(full)-2],
		[]byte(": heartbeat\n\n"),
		[]byte("event: done\ndata: {}\n\n"),
		[]byte("event: \nid: 1\ndata: x\n\n"),
		[]byte("id: 99999999999999999999\nevent: episode\n\n"),
		[]byte("event: done\r\n\r\n"),
		nil,
	} {
		f.Add(seed)
	}

	var body atomic.Pointer[[]byte]
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		_, _ = w.Write(*body.Load())
	}))
	f.Cleanup(srv.Close)
	cl := &client{base: srv.URL, http: srv.Client(), streamTimeout: 2 * time.Second}

	f.Fuzz(func(t *testing.T, data []byte) {
		body.Store(&data)
		sawDone := false
		err := cl.stream(context.Background(), "job-1", -1, func(fr sseFrame) error {
			if fr.event == "" {
				t.Fatalf("delivered a frame without an event: %+v", fr)
			}
			if sawDone {
				t.Fatalf("delivered %q after the done frame", fr.event)
			}
			if fr.event == "done" {
				sawDone = true
				return errStreamDone
			}
			return nil
		})
		if err == nil && !sawDone {
			t.Fatalf("stream of %q returned nil without a done frame", data)
		}
		if sawDone && err != nil {
			t.Fatalf("stream of %q ended with %v after the done frame", data, err)
		}
		if errors.Is(err, errStreamDone) {
			t.Fatalf("errStreamDone leaked out of stream: %v", err)
		}
	})
}
