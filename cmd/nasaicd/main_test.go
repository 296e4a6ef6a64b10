package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"nasaic/internal/jobs"
)

// daemon is one nasaicd process under test.
type daemon struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
}

func buildDaemon(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "nasaicd")
	out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

func startDaemon(t *testing.T, bin, addr, datadir string) *daemon {
	t.Helper()
	cmd := exec.Command(bin, "-addr", addr, "-datadir", datadir, "-max-jobs", "1")
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	d := &daemon{cmd: cmd, base: "http://" + addr}
	t.Cleanup(func() {
		if cmd.Process != nil {
			_ = cmd.Process.Kill()
			_, _ = cmd.Process.Wait()
		}
	})
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(d.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d
			}
		}
		time.Sleep(25 * time.Millisecond)
	}
	t.Fatalf("daemon at %s never became healthy", addr)
	return nil
}

func (d *daemon) getJob(t *testing.T, id string) map[string]json.RawMessage {
	t.Helper()
	resp, err := http.Get(d.base + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/jobs/%s: status %d", id, resp.StatusCode)
	}
	var m map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}

// sseFrame is one parsed server-sent event.
type sseFrame struct {
	event, id string
	data      []byte
}

// readStream reads a job's SSE stream through its done frame, resuming
// after lastID when it is not empty.
func readStream(t *testing.T, url, lastID string) []sseFrame {
	t.Helper()
	req, _ := http.NewRequest(http.MethodGet, url, nil)
	if lastID != "" {
		req.Header.Set("Last-Event-ID", lastID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	r := bufio.NewReader(resp.Body)
	var frames []sseFrame
	var cur sseFrame
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			return frames
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case strings.HasPrefix(line, "event: "):
			cur.event = line[len("event: "):]
		case strings.HasPrefix(line, "id: "):
			cur.id = line[len("id: "):]
		case strings.HasPrefix(line, "data: "):
			cur.data = []byte(line[len("data: "):])
		case line == "" && cur.event != "":
			frames = append(frames, cur)
			cur = sseFrame{}
		}
	}
}

// requireSameStream checks a stream against the reference stream of the
// same spec: every episode frame byte for byte, and a done frame under the
// same id carrying the same terminal status and an equal result (its
// timestamps and job ID may differ).
func requireSameStream(t *testing.T, label string, got, want []sseFrame) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d frames, want %d", label, len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if g.event != w.event || g.id != w.id {
			t.Fatalf("%s: frame %d is %s id %s, want %s id %s", label, i, g.event, g.id, w.event, w.id)
		}
		if w.event != "done" {
			if !bytes.Equal(g.data, w.data) {
				t.Fatalf("%s: frame %d diverged:\n%s\nvs\n%s", label, i, g.data, w.data)
			}
			continue
		}
		var gs, ws struct {
			Status string          `json:"status"`
			Result json.RawMessage `json:"result"`
		}
		if json.Unmarshal(g.data, &gs) != nil || json.Unmarshal(w.data, &ws) != nil || ws.Status == "" ||
			len(ws.Result) == 0 || gs.Status != ws.Status || !bytes.Equal(gs.Result, ws.Result) {
			t.Fatalf("%s: done frame is %s, want %s with a result (results equal: %v)", label,
				gs.Status, ws.Status, bytes.Equal(gs.Result, ws.Result))
		}
	}
}

// TestKillRestartRecovery is the crash-safety acceptance smoke at process
// level: SIGKILL the daemon mid-run, restart it over the same -datadir, and
// require the re-executed job's SSE stream to equal an uncrashed reference
// stream of the same spec — every episode frame byte for byte and an equal
// result in the done frame — from the start and from a Last-Event-ID.
func TestKillRestartRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("process-level kill/restart smoke skipped in -short mode")
	}
	const episodes = 600
	bin := buildDaemon(t)
	datadir := t.TempDir()
	addr := freeAddr(t)

	d1 := startDaemon(t, bin, addr, datadir)
	spec := fmt.Sprintf(`{"workload":"W3","episodes":%d,"seed":1,"workers":2}`, episodes)
	resp, err := http.Post(d1.base+"/v1/jobs", "application/json", bytes.NewReader([]byte(spec)))
	if err != nil {
		t.Fatal(err)
	}
	var submitted struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&submitted); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || submitted.ID == "" {
		t.Fatalf("submit: status %d, id %q", resp.StatusCode, submitted.ID)
	}

	// Wait until the job is demonstrably mid-run (episodes streamed, none of
	// them journaled), then pull the plug with no warning whatsoever.
	deadline := time.Now().Add(time.Minute)
	for {
		if time.Now().After(deadline) {
			t.Fatal("job never produced events before the kill")
		}
		snap := d1.getJob(t, submitted.ID)
		var n int
		_ = json.Unmarshal(snap["episodes"], &n)
		if n >= 20 && n < episodes {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err := d1.cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	_, _ = d1.cmd.Process.Wait()

	// Restart over the same datadir: the job must reappear immediately and
	// re-execute to completion.
	d2 := startDaemon(t, bin, addr, datadir)
	var status string
	deadline = time.Now().Add(3 * time.Minute)
	for {
		if time.Now().After(deadline) {
			t.Fatalf("recovered job stuck in %q", status)
		}
		snap := d2.getJob(t, submitted.ID)
		_ = json.Unmarshal(snap["status"], &status)
		if status == "succeeded" || status == "failed" || status == "cancelled" {
			break
		}
		time.Sleep(100 * time.Millisecond)
	}
	if status != "succeeded" {
		t.Fatalf("recovered job finished %q, want succeeded", status)
	}

	// The uncrashed reference: the same spec through an in-process manager
	// set up as nasaicd sets up its own (shared memos, starting cold).
	ref := jobs.NewManager(jobs.Options{MaxConcurrent: 1, ShareMemos: true})
	defer ref.Close()
	refSrv := httptest.NewServer(jobs.NewHandler(ref))
	defer refSrv.Close()
	refJob, err := ref.Submit(jobs.Spec{Workload: "W3", Episodes: episodes, Seed: 1, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	if err := refJob.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	want := readStream(t, refSrv.URL+"/v1/jobs/"+refJob.ID+"/events", "")
	if len(want) != episodes+1 || want[episodes].event != "done" {
		t.Fatalf("reference stream: %d frames, want %d episodes + done", len(want), episodes)
	}
	url := d2.base + "/v1/jobs/" + submitted.ID + "/events"
	requireSameStream(t, "recovered stream", readStream(t, url, ""), want)
	from := episodes - 5
	requireSameStream(t, "Last-Event-ID replay", readStream(t, url, fmt.Sprint(from-1)), want[from:])
}
