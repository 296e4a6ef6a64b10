package jobs

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nasaic/internal/tenant"
	"nasaic/pkg/nasaic"
)

// TestMultiTenantSoak is the load-generator harness for the fair-share
// dispatcher: hundreds of concurrent clients submit, stream and cancel jobs
// across two tenants with equal quotas, with the heavy tenant submitting an
// order of magnitude more work than the light one. It asserts the
// multi-tenant contract under contention (CI runs it under -race):
//
//   - no starvation: every accepted light job reaches running, and the
//     light tenant's p99 time-to-running stays bounded even while the heavy
//     tenant's queue is always full;
//   - quota enforcement: the heavy tenant's burst draws 429s, each with a
//     Retry-After hint, and every accepted job still settles terminally;
//   - auth: bad and missing keys are rejected (403/401) throughout the run,
//     and scoped listings never leak another tenant's jobs.
func TestMultiTenantSoak(t *testing.T) {
	heavyJobs, lightJobs, submitters := 200, 20, 20
	streamers, cancels := 40, 20
	if testing.Short() {
		heavyJobs, lightJobs, submitters = 60, 6, 12
		streamers, cancels = 12, 6
	}
	// Equal for heavy and light; small enough that the heavy submitter pool
	// (which always outnumbers it) reliably overdrives the quota.
	quota := tenant.Limits{MaxPending: 4}
	reg, err := tenant.New([]tenant.Tenant{
		{Name: "heavy", Limits: quota},
		{Name: "light", Limits: quota},
		{Name: "ops", Admin: true},
	}, []string{"heavy-key-1", "light-key-2", "ops-key-3"})
	if err != nil {
		t.Fatal(err)
	}

	// History must hold the whole run: the fairness measurement reads every
	// light job's snapshot after the drain.
	m := NewManager(Options{MaxConcurrent: 4, MaxHistory: heavyJobs + lightJobs + 16, Tenants: reg})
	defer m.Close()
	// Fake work: a millisecond of "exploration" that honours cancellation,
	// so the soak exercises scheduling, not the engine.
	m.opts.Executor = execFunc(func(ctx context.Context, j *Job) (*nasaic.Result, error) {
		select {
		case <-time.After(time.Millisecond):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return &nasaic.Result{Episodes: j.Spec.Episodes}, nil
	})
	srv := httptest.NewServer(NewAuthHandler(m, reg))
	defer srv.Close()
	client := srv.Client()

	request := func(method, path, key string, body []byte) (*http.Response, error) {
		req, err := http.NewRequest(method, srv.URL+path, bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		if key != "" {
			req.Header.Set("Authorization", "Bearer "+key)
		}
		return client.Do(req)
	}

	var (
		mu       sync.Mutex
		ids      = map[string][]string{} // tenant -> accepted job IDs
		rejected atomic.Int64            // 429s observed
		failures = make(chan string, 64)
	)
	fail := func(format string, args ...any) {
		select {
		case failures <- fmt.Sprintf(format, args...):
		default:
		}
	}
	// submit pushes one job through the API, retrying over quota rejections
	// until accepted; every 429 must carry a Retry-After hint.
	submit := func(key string) (string, bool) {
		body := []byte(`{"workload":"W3","episodes":3}`)
		for attempt := 0; attempt < 500; attempt++ {
			resp, err := request("POST", "/v1/jobs", key, body)
			if err != nil {
				fail("submit: %v", err)
				return "", false
			}
			if resp.StatusCode == http.StatusTooManyRequests {
				if resp.Header.Get("Retry-After") == "" {
					fail("429 without Retry-After")
				}
				resp.Body.Close()
				rejected.Add(1)
				time.Sleep(time.Duration(1+rand.Intn(3)) * time.Millisecond)
				continue
			}
			var snap Snapshot
			decErr := json.NewDecoder(resp.Body).Decode(&snap)
			resp.Body.Close()
			if resp.StatusCode != http.StatusAccepted || decErr != nil {
				fail("submit: status %d (decode %v)", resp.StatusCode, decErr)
				return "", false
			}
			return snap.ID, true
		}
		fail("submit: starved out after 500 quota retries")
		return "", false
	}

	var wg sync.WaitGroup
	jobsPerWorker := heavyJobs / submitters
	heavyJobs = jobsPerWorker * submitters // exact, whatever the split
	for w := 0; w < submitters; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < jobsPerWorker; i++ {
				if id, ok := submit("heavy-key-1"); ok {
					mu.Lock()
					ids["heavy"] = append(ids["heavy"], id)
					mu.Unlock()
				}
			}
		}()
	}
	for w := 0; w < lightJobs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if id, ok := submit("light-key-2"); ok {
				mu.Lock()
				ids["light"] = append(ids["light"], id)
				mu.Unlock()
			}
		}()
	}
	// Streamers follow whatever jobs exist until the terminal done frame.
	for w := 0; w < streamers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			mu.Lock()
			pool := append([]string(nil), ids["heavy"]...)
			mu.Unlock()
			if len(pool) == 0 {
				return
			}
			id := pool[rand.Intn(len(pool))]
			resp, err := request("GET", "/v1/jobs/"+id+"/events", "heavy-key-1", nil)
			if err != nil {
				fail("stream: %v", err)
				return
			}
			defer resp.Body.Close()
			frames := readSSE(t, bufio.NewReader(resp.Body), 100)
			if len(frames) == 0 || frames[len(frames)-1].event != "done" {
				fail("stream of %s ended without a done frame", id)
			}
		}()
	}
	// Cancellers tear down a slice of the heavy burst mid-flight.
	for w := 0; w < cancels; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			mu.Lock()
			pool := append([]string(nil), ids["heavy"]...)
			mu.Unlock()
			if len(pool) == 0 {
				return
			}
			resp, err := request("DELETE", "/v1/jobs/"+pool[rand.Intn(len(pool))], "heavy-key-1", nil)
			if err != nil {
				fail("cancel: %v", err)
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusNotFound {
				// 404 is legal: the job may already be evicted from history.
				fail("cancel: status %d", resp.StatusCode)
			}
		}()
	}
	// Auth probes hammer the middleware while everything else is running.
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				resp, err := request("GET", "/v1/jobs", "", nil)
				if err == nil {
					resp.Body.Close()
					if resp.StatusCode != http.StatusUnauthorized {
						fail("missing key: status %d, want 401", resp.StatusCode)
					}
				}
				resp, err = request("GET", "/v1/jobs", "intruder-key-0", nil)
				if err == nil {
					resp.Body.Close()
					if resp.StatusCode != http.StatusForbidden {
						fail("bad key: status %d, want 403", resp.StatusCode)
					}
				}
			}
		}()
	}
	wg.Wait()
	close(failures)
	for msg := range failures {
		t.Error(msg)
	}
	if t.Failed() {
		t.FailNow()
	}

	// Drain: every accepted job settles terminally.
	drainCtx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	for _, tn := range []string{"heavy", "light"} {
		for _, id := range ids[tn] {
			j, err := m.Get(id)
			if err != nil {
				continue // evicted from the bounded history after finishing
			}
			if err := j.Wait(drainCtx); err != nil {
				t.Fatalf("%s job %s never settled: %v", tn, id, err)
			}
		}
	}

	if got := len(ids["heavy"]) + len(ids["light"]); got != heavyJobs+lightJobs {
		t.Fatalf("accepted %d jobs, want %d", got, heavyJobs+lightJobs)
	}
	if rejected.Load() == 0 {
		t.Error("heavy burst never drew a 429 — quota not enforced")
	}

	// No starvation: every light job ran, and the light tenant's p99
	// time-to-running stays bounded even though the heavy tenant kept its
	// quota-bounded queue full for the whole run. The bound is generous (CI
	// machines under -race are slow) — the regression it guards against is
	// FIFO behavior, where light jobs wait behind the entire heavy backlog.
	var waits []time.Duration
	for _, id := range ids["light"] {
		j, err := m.Get(id)
		if err != nil {
			continue
		}
		snap := j.Snapshot()
		if snap.StartedAt == nil {
			t.Fatalf("light job %s never started (status %s)", id, snap.Status)
		}
		waits = append(waits, snap.StartedAt.Sub(snap.CreatedAt))
	}
	if len(waits) == 0 {
		t.Fatal("no light jobs measured")
	}
	sort.Slice(waits, func(i, k int) bool { return waits[i] < waits[k] })
	p99 := waits[len(waits)*99/100]
	if p99 > 10*time.Second {
		t.Fatalf("light tenant p99 time-to-running %v — starved behind the heavy burst", p99)
	}
	t.Logf("soak: %d heavy + %d light jobs, %d quota rejections, light p99 time-to-running %v",
		len(ids["heavy"]), len(ids["light"]), rejected.Load(), p99)

	// Scoping held under load: the light tenant's listing shows only its
	// own jobs.
	resp, err := request("GET", "/v1/jobs", "light-key-2", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var listed []Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&listed); err != nil {
		t.Fatal(err)
	}
	for _, snap := range listed {
		if snap.Tenant != "light" {
			t.Fatalf("light listing leaked %s's job %s", snap.Tenant, snap.ID)
		}
	}
}
