package cluster

import (
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

	"nasaic/internal/jobs"
	"nasaic/internal/tenant"
)

// percentile picks the p-th percentile of the sorted durations.
func percentile(sorted []time.Duration, p int) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[len(sorted)*p/100]
}

// clusterSoak drives many concurrent submissions from two tenants through a
// 2-worker cluster and returns every job's time-to-running, sorted. It is
// the cluster variant of the jobs package's TestMultiTenantSoak: tenant
// fairness and quotas are enforced at the coordinator, placement spreads the
// load across replicas, and the cross-replica scheduling latency comes back
// as p50/p99 (ROADMAP item 1's latency percentiles).
func clusterSoak(tb testing.TB, heavyJobs, lightJobs, submitters int) []time.Duration {
	tb.Helper()
	reg, err := tenant.New([]tenant.Tenant{
		{Name: "heavy", Limits: tenant.Limits{MaxPending: 4}},
		{Name: "light", Limits: tenant.Limits{MaxPending: 4}},
	}, []string{"heavy-key-1", "light-key-2"})
	if err != nil {
		tb.Fatal(err)
	}

	w1 := startWorker(tb, jobs.Options{MaxConcurrent: 2, Executor: fakeRun(time.Millisecond)})
	w2 := startWorker(tb, jobs.Options{MaxConcurrent: 2, Executor: fakeRun(time.Millisecond)})
	urls := []string{w1.srv.URL, w2.srv.URL}
	coord, err := New(Config{
		Workers:       urls,
		Key:           testKey,
		ProbeInterval: 20 * time.Millisecond,
		RetryDelay:    10 * time.Millisecond,
		Logf:          tb.Logf,
	})
	if err != nil {
		tb.Fatal(err)
	}
	m := jobs.NewManager(jobs.Options{
		MaxConcurrent: 4,
		MaxHistory:    heavyJobs + lightJobs + 16,
		Tenants:       reg,
		Executor:      coord,
	})
	srv := httptest.NewServer(NewCoordinatorHandler(m, reg, coord))
	tb.Cleanup(func() { srv.Close(); m.Close(); coord.Close() })
	waitHealthy(tb, coord, 2)

	var (
		mu       sync.Mutex
		accepted []string
		rejected atomic.Int64
		failures = make(chan string, 64)
	)
	fail := func(format string, args ...any) {
		select {
		case failures <- fmt.Sprintf(format, args...):
		default:
		}
	}
	submit := func(key string) {
		body := []byte(`{"workload":"W3","episodes":3}`)
		for attempt := 0; attempt < 500; attempt++ {
			req, _ := http.NewRequest(http.MethodPost, srv.URL+"/v1/jobs", bytes.NewReader(body))
			req.Header.Set("Authorization", "Bearer "+key)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				fail("submit: %v", err)
				return
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
			var snap jobs.Snapshot
			decErr := json.NewDecoder(resp.Body).Decode(&snap)
			resp.Body.Close()
			if resp.StatusCode != http.StatusAccepted || decErr != nil {
				fail("submit: status %d (decode %v)", resp.StatusCode, decErr)
				return
			}
			mu.Lock()
			accepted = append(accepted, snap.ID)
			mu.Unlock()
			return
		}
		fail("submit: starved out after 500 quota retries")
	}

	var wg sync.WaitGroup
	perWorker := heavyJobs / submitters
	for s := 0; s < submitters; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				submit("heavy-key-1")
			}
		}()
	}
	for s := 0; s < lightJobs; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			submit("light-key-2")
		}()
	}
	wg.Wait()
	close(failures)
	for msg := range failures {
		tb.Error(msg)
	}
	if tb.Failed() {
		tb.Fatalf("soak aborted")
	}

	// Drain and measure: every accepted job settles, and its wait from
	// submission to running is the cross-replica scheduling latency.
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	var waits []time.Duration
	for _, id := range accepted {
		j, err := m.Get(id)
		if err != nil {
			continue // evicted after finishing
		}
		if err := j.Wait(ctx); err != nil {
			tb.Fatalf("job %s never settled: %v", id, err)
		}
		snap := j.Snapshot()
		if snap.Status != jobs.StatusSucceeded {
			tb.Fatalf("job %s settled %s (%s)", id, snap.Status, snap.Error)
		}
		if snap.StartedAt != nil {
			waits = append(waits, snap.StartedAt.Sub(snap.CreatedAt))
		}
	}
	if n1, n2 := len(w1.m.List()), len(w2.m.List()); n1 == 0 || n2 == 0 {
		tb.Fatalf("placement did not spread under load: %d vs %d jobs", n1, n2)
	}
	if rejected.Load() == 0 {
		tb.Error("heavy burst never drew a 429 — coordinator quota not enforced")
	}
	sort.Slice(waits, func(i, k int) bool { return waits[i] < waits[k] })
	return waits
}

// TestClusterSoak is the cluster scheduling soak (CI runs it under -race):
// two tenants overdrive a 2-worker cluster through the coordinator, every
// accepted job must settle successfully across the replicas, quota
// rejections keep their Retry-After hints, and the cross-replica
// time-to-running p50/p99 land in the log as the sharding latency metrics.
func TestClusterSoak(t *testing.T) {
	heavyJobs, lightJobs, submitters := 48, 12, 12
	if testing.Short() {
		heavyJobs, lightJobs, submitters = 24, 6, 6
	}
	waits := clusterSoak(t, heavyJobs, lightJobs, submitters)
	if len(waits) == 0 {
		t.Fatal("no scheduling latencies measured")
	}
	p50, p99 := percentile(waits, 50), percentile(waits, 99)
	if p99 > 15*time.Second {
		t.Fatalf("cross-replica p99 time-to-running %v — dispatch starved", p99)
	}
	t.Logf("cluster soak: %d jobs, time-to-running p50 %v p99 %v", len(waits), p50, p99)
}

// BenchmarkClusterTimeToRunning reports the cross-replica scheduling
// latency percentiles as benchmark metrics (ttr_p50_ms / ttr_p99_ms), so CI
// can track dispatch latency across changes the way it tracks throughput.
func BenchmarkClusterTimeToRunning(b *testing.B) {
	for i := 0; i < b.N; i++ {
		waits := clusterSoak(b, 24, 6, 6)
		p50 := percentile(waits, 50)
		p99 := percentile(waits, 99)
		b.ReportMetric(float64(p50.Microseconds())/1000, "ttr_p50_ms")
		b.ReportMetric(float64(p99.Microseconds())/1000, "ttr_p99_ms")
	}
}
