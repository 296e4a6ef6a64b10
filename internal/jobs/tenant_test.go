package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"nasaic/internal/faultfs"
	"nasaic/internal/journal"
	"nasaic/internal/tenant"
	"nasaic/pkg/nasaic"
)

// testRegistry builds a registry for the multi-tenant tests: two regular
// tenants with equal quotas and one admin.
func testRegistry(t *testing.T, limits tenant.Limits) *tenant.Registry {
	t.Helper()
	reg, err := tenant.New([]tenant.Tenant{
		{Name: "alpha", Limits: limits},
		{Name: "beta", Limits: limits},
		{Name: "ops", Admin: true},
	}, []string{"alpha-key-1", "beta-key-22", "ops-key-333"})
	if err != nil {
		t.Fatal(err)
	}
	return reg
}

// TestFairShareDispatchOrder pins the scheduler's determinism: with one
// global slot, a tenant that floods the queue gets exactly one grant per
// ring pass, so another tenant's lone job runs second — not after the whole
// flood. The fake runner records the exact grant order.
func TestFairShareDispatchOrder(t *testing.T) {
	reg := testRegistry(t, tenant.Limits{})
	m := NewManager(Options{MaxConcurrent: 1, Tenants: reg})
	defer m.Close()

	var (
		mu    sync.Mutex
		order []string
	)
	step := make(chan struct{})
	m.opts.Executor = execFunc(func(ctx context.Context, j *Job) (*nasaic.Result, error) {
		mu.Lock()
		order = append(order, j.ID+"/"+j.Tenant)
		mu.Unlock()
		select {
		case <-step:
		case <-ctx.Done():
		}
		return &nasaic.Result{}, nil
	})

	alpha, beta := reg.ByName("alpha"), reg.ByName("beta")
	// alpha floods first and grabs the only slot; beta's jobs queue behind.
	var jobs []*Job
	for i := 0; i < 4; i++ {
		j, err := m.SubmitAs(alpha, quickSpec(1))
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	for i := 0; i < 2; i++ {
		j, err := m.SubmitAs(beta, quickSpec(1))
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	// Release the running job one grant at a time; each send unblocks
	// exactly the job currently holding the slot.
	for i := 0; i < len(jobs); i++ {
		step <- struct{}{}
	}
	for _, j := range jobs {
		waitTerminal(t, j, time.Minute)
	}

	mu.Lock()
	defer mu.Unlock()
	// job-1..4 are alpha's, job-5..6 beta's. alpha's first job is granted on
	// submission; after it the ring alternates until beta's queue drains.
	want := []string{
		"job-1/alpha", "job-5/beta", "job-2/alpha", "job-6/beta",
		"job-3/alpha", "job-4/alpha",
	}
	if got := strings.Join(order, " "); got != strings.Join(want, " ") {
		t.Fatalf("grant order:\n got %s\nwant %s", got, strings.Join(want, " "))
	}
}

// TestTenantConcurrencyQuota pins the per-tenant MaxConcurrent bound: a
// tenant capped at one running job cannot occupy a second free global slot,
// which stays available for other tenants.
func TestTenantConcurrencyQuota(t *testing.T) {
	reg := testRegistry(t, tenant.Limits{MaxConcurrent: 1})
	m := NewManager(Options{MaxConcurrent: 2, Tenants: reg})
	defer m.Close()

	step := make(chan struct{})
	m.opts.Executor = execFunc(func(ctx context.Context, j *Job) (*nasaic.Result, error) {
		select {
		case <-step:
		case <-ctx.Done():
		}
		return &nasaic.Result{}, nil
	})

	alpha, beta := reg.ByName("alpha"), reg.ByName("beta")
	a1, err := m.SubmitAs(alpha, quickSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	a2, err := m.SubmitAs(alpha, quickSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, a1, time.Minute)
	// a2 must stay pending: alpha is at its quota even though a global slot
	// is free. beta can take that slot immediately.
	b1, err := m.SubmitAs(beta, quickSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, b1, time.Minute)
	if st := a2.Snapshot().Status; st != StatusPending {
		t.Fatalf("a2 status %s, want pending while alpha is at MaxConcurrent", st)
	}
	close(step)
	for _, j := range []*Job{a1, a2, b1} {
		waitTerminal(t, j, time.Minute)
	}
}

// TestTenantPendingQuota pins the per-tenant MaxPending bound and the
// QuotaError shape: the rejection matches ErrTooManyPending, names the
// tenant, and carries a Retry-After hint — and does not affect the other
// tenant's admission.
func TestTenantPendingQuota(t *testing.T) {
	reg := testRegistry(t, tenant.Limits{MaxPending: 1})
	m := NewManager(Options{MaxConcurrent: 1, Tenants: reg})
	defer m.Close()

	step := make(chan struct{})
	defer close(step)
	m.opts.Executor = execFunc(func(ctx context.Context, j *Job) (*nasaic.Result, error) {
		select {
		case <-step:
		case <-ctx.Done():
		}
		return &nasaic.Result{}, nil
	})

	alpha, beta := reg.ByName("alpha"), reg.ByName("beta")
	a1, err := m.SubmitAs(alpha, quickSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, a1, time.Minute) // holds the slot; queue decisions are quota's
	if _, err := m.SubmitAs(alpha, quickSpec(1)); err != nil {
		t.Fatalf("first queued submission rejected: %v", err)
	}
	_, err = m.SubmitAs(alpha, quickSpec(1))
	if !errors.Is(err, ErrTooManyPending) {
		t.Fatalf("over-quota submission: err = %v, want ErrTooManyPending", err)
	}
	var qe *QuotaError
	if !errors.As(err, &qe) || qe.Tenant != "alpha" || qe.Limit != 1 || qe.RetryAfter <= 0 {
		t.Fatalf("quota error = %+v", qe)
	}
	// beta's identical quota is untouched by alpha's rejection.
	if _, err := m.SubmitAs(beta, quickSpec(1)); err != nil {
		t.Fatalf("beta submission rejected by alpha's quota: %v", err)
	}
}

// TestHTTPAuth pins the wire contract: no credential is 401 with a
// WWW-Authenticate challenge, a wrong key is 403, /healthz needs no key,
// and authenticated requests are scoped — a tenant sees only its own jobs
// (foreign IDs read as 404, never 403), the admin sees everything.
func TestHTTPAuth(t *testing.T) {
	reg := testRegistry(t, tenant.Limits{})
	m := NewManager(Options{MaxConcurrent: 2, Tenants: reg})
	defer m.Close()
	srv := httptest.NewServer(NewAuthHandler(m, reg))
	defer srv.Close()

	do := func(method, path, key string) *http.Response {
		t.Helper()
		req, err := http.NewRequest(method, srv.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		if key != "" {
			req.Header.Set("Authorization", "Bearer "+key)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	// 401 for missing credentials, with a challenge; 403 for unknown keys.
	resp := do("GET", "/v1/jobs", "")
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("no key: status %d, want 401", resp.StatusCode)
	}
	if resp.Header.Get("WWW-Authenticate") == "" {
		t.Fatal("401 without WWW-Authenticate challenge")
	}
	resp = do("GET", "/v1/jobs", "not-a-real-key")
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("bad key: status %d, want 403", resp.StatusCode)
	}
	resp = do("GET", "/healthz", "")
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz without key: status %d, want 200", resp.StatusCode)
	}

	// Submissions carry the authenticated tenant into the snapshot.
	post := func(key string) Snapshot {
		t.Helper()
		req, err := http.NewRequest("POST", srv.URL+"/v1/jobs",
			strings.NewReader(`{"workload":"W3","episodes":2}`))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Authorization", "Bearer "+key)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("POST: status %d, want 202", resp.StatusCode)
		}
		var snap Snapshot
		if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
			t.Fatal(err)
		}
		return snap
	}
	aJob := post("alpha-key-1")
	bJob := post("beta-key-22")
	if aJob.Tenant != "alpha" || bJob.Tenant != "beta" {
		t.Fatalf("tenants: %q, %q", aJob.Tenant, bJob.Tenant)
	}

	// Scoping: alpha cannot read, stream or cancel beta's job.
	for _, path := range []string{
		"/v1/jobs/" + bJob.ID,
		"/v1/jobs/" + bJob.ID + "/events",
	} {
		resp = do("GET", path, "alpha-key-1")
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s as alpha: status %d, want 404", path, resp.StatusCode)
		}
	}
	resp = do("DELETE", "/v1/jobs/"+bJob.ID, "alpha-key-1")
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("DELETE foreign job: status %d, want 404", resp.StatusCode)
	}

	// Listings: each tenant its own, the admin all.
	list := func(key string) []Snapshot {
		t.Helper()
		resp := do("GET", "/v1/jobs", key)
		defer resp.Body.Close()
		var out []Snapshot
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out
	}
	if l := list("alpha-key-1"); len(l) != 1 || l[0].ID != aJob.ID {
		t.Fatalf("alpha list = %+v", l)
	}
	if l := list("ops-key-333"); len(l) != 2 {
		t.Fatalf("admin list has %d jobs, want 2", len(l))
	}
	// The admin can read and cancel anyone's job.
	resp = do("DELETE", "/v1/jobs/"+aJob.ID, "ops-key-333")
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("admin cancel: status %d, want 202", resp.StatusCode)
	}
}

// TestHTTPQuotaRetryAfter pins the 429 surface: an over-quota submission
// carries a Retry-After hint alongside the JSON error envelope.
func TestHTTPQuotaRetryAfter(t *testing.T) {
	reg := testRegistry(t, tenant.Limits{MaxPending: 1})
	m := NewManager(Options{MaxConcurrent: 1, Tenants: reg})
	defer m.Close()

	step := make(chan struct{})
	defer close(step)
	m.opts.Executor = execFunc(func(ctx context.Context, j *Job) (*nasaic.Result, error) {
		select {
		case <-step:
		case <-ctx.Done():
		}
		return &nasaic.Result{}, nil
	})
	srv := httptest.NewServer(NewAuthHandler(m, reg))
	defer srv.Close()

	post := func() *http.Response {
		t.Helper()
		req, err := http.NewRequest("POST", srv.URL+"/v1/jobs",
			strings.NewReader(`{"workload":"W3","episodes":2}`))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Authorization", "Bearer alpha-key-1")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	first := post() // granted the slot
	first.Body.Close()
	j, err := m.Get("job-1")
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, j, time.Minute)
	second := post() // fills alpha's pending quota
	second.Body.Close()

	third := post()
	defer third.Body.Close()
	if third.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota POST: status %d, want 429", third.StatusCode)
	}
	if ra := third.Header.Get("Retry-After"); ra == "" {
		t.Fatal("429 without Retry-After hint")
	}
	var apiErr struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(third.Body).Decode(&apiErr); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(apiErr.Error, "alpha") {
		t.Fatalf("429 body does not name the tenant: %q", apiErr.Error)
	}
}

// TestRecoveryReattachesTenants pins tenancy durability: journaled tenant
// IDs survive a restart for terminal jobs, and an interrupted job re-executes
// under its original tenant (scoped listings stay correct after recovery).
func TestRecoveryReattachesTenants(t *testing.T) {
	dir := t.TempDir()
	reg := testRegistry(t, tenant.Limits{})

	m1 := NewManager(Options{MaxConcurrent: 2, DataDir: dir, Logf: t.Logf, Tenants: reg})
	done, err := m1.SubmitAs(reg.ByName("alpha"), quickSpec(8))
	if err != nil {
		t.Fatal(err)
	}
	if got := waitTerminal(t, done, 2*time.Minute); got.Status != StatusSucceeded {
		t.Fatalf("job status %s (err %q)", got.Status, got.Error)
	}
	m1.Close()

	// Simulate an interrupted submission from beta: a journal with the
	// submitted record but no terminal one, exactly what a crash mid-run
	// leaves behind.
	jn, err := journal.Open(filepath.Join(dir, "journal"), journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	spec, _ := json.Marshal(quickSpec(6))
	if err := jn.Append(journal.Record{
		Type: journal.TypeSubmitted, Job: "job-2", Tenant: "beta",
		Time: time.Now(), Spec: spec,
	}); err != nil {
		t.Fatal(err)
	}
	if err := jn.Close(); err != nil {
		t.Fatal(err)
	}

	m2 := NewManager(Options{MaxConcurrent: 2, DataDir: dir, Logf: t.Logf, Tenants: reg})
	defer m2.Close()
	restored, err := m2.Get(done.ID)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Tenant != "alpha" {
		t.Fatalf("restored terminal job tenant %q, want alpha", restored.Tenant)
	}
	reexec, err := m2.Get("job-2")
	if err != nil {
		t.Fatal(err)
	}
	if reexec.Tenant != "beta" {
		t.Fatalf("re-executed job tenant %q, want beta", reexec.Tenant)
	}
	if got := waitTerminal(t, reexec, 2*time.Minute); got.Status != StatusSucceeded {
		t.Fatalf("re-executed job status %s (err %q)", got.Status, got.Error)
	}
	// Scoped views hold after recovery.
	if l := m2.ListFor(reg.ByName("alpha")); len(l) != 1 || l[0].ID != done.ID {
		t.Fatalf("alpha's recovered list = %d jobs", len(l))
	}
	if l := m2.ListFor(reg.ByName("beta")); len(l) != 1 || l[0].ID != "job-2" {
		t.Fatalf("beta's recovered list = %d jobs", len(l))
	}
}

// TestRecoveryClampsTimestamps pins the orNow/orAfter fix: a journaled
// terminal job whose running record was lost (zero Started) must not restore
// finished < started — recovery enforces created <= started <= finished.
func TestRecoveryClampsTimestamps(t *testing.T) {
	dir := t.TempDir()
	created := time.Now().Add(-time.Hour).Round(0)
	finished := created.Add(time.Minute)

	jn, err := journal.Open(filepath.Join(dir, "journal"), journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	spec, _ := json.Marshal(quickSpec(2))
	for _, rec := range []journal.Record{
		{Type: journal.TypeSubmitted, Job: "job-1", Time: created, Spec: spec},
		// No running record (lost to a crash): st.Started stays zero while
		// Finished is an hour in the past. orNow alone would restore
		// started=now > finished.
		{Type: journal.TypeFinished, Job: "job-1", Time: finished, Status: "succeeded"},
	} {
		if err := jn.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := jn.Close(); err != nil {
		t.Fatal(err)
	}

	m := NewManager(Options{DataDir: dir, Logf: t.Logf})
	defer m.Close()
	j, err := m.Get("job-1")
	if err != nil {
		t.Fatal(err)
	}
	snap := j.Snapshot()
	if snap.StartedAt == nil || snap.FinishedAt == nil {
		t.Fatalf("restored snapshot missing timestamps: %+v", snap)
	}
	if snap.StartedAt.Before(snap.CreatedAt) {
		t.Fatalf("started %v before created %v", snap.StartedAt, snap.CreatedAt)
	}
	if snap.FinishedAt.Before(*snap.StartedAt) {
		t.Fatalf("finished %v before started %v", snap.FinishedAt, snap.StartedAt)
	}
}

// TestSubmitJournalsOutsideLock is the slow-disk regression test for the
// Submit bugfix: with the journal's fsync stalled (a hung disk), an
// in-flight submission must not wedge concurrent reads — the old code
// journaled while holding the manager lock, so Get/List would block behind
// the stalled fsync.
func TestSubmitJournalsOutsideLock(t *testing.T) {
	fs := faultfs.NewMem(faultfs.Faults{})
	m := NewManager(Options{MaxConcurrent: 1, DataDir: "data", FS: fs, Logf: t.Logf})
	defer m.Close()

	first, err := m.Submit(quickSpec(4))
	if err != nil {
		t.Fatal(err)
	}
	if got := waitTerminal(t, first, 2*time.Minute); got.Status != StatusSucceeded {
		t.Fatalf("first job: status %s (err %q)", got.Status, got.Error)
	}

	// Stall every subsequent fsync, then submit: the call must block in the
	// journal append (durability before observability) — without the
	// manager lock.
	gate := make(chan struct{})
	released := false
	release := func() {
		if !released {
			released = true
			close(gate)
		}
	}
	defer release() // keep Close from hanging if an assertion fails first
	fs.SetFaults(faultfs.Faults{SyncGate: gate})

	type submitResult struct {
		j   *Job
		err error
	}
	submitted := make(chan submitResult, 1)
	go func() {
		j, err := m.Submit(quickSpec(4))
		submitted <- submitResult{j, err}
	}()

	// Concurrent reads must return promptly while the submission is wedged
	// in the fsync. Run each under its own deadline.
	readDone := make(chan string, 2)
	go func() {
		if _, err := m.Get(first.ID); err != nil {
			readDone <- fmt.Sprintf("Get: %v", err)
			return
		}
		readDone <- ""
	}()
	go func() {
		if l := m.List(); len(l) != 1 {
			// The stalled job must not be observable before its record is
			// durable.
			readDone <- fmt.Sprintf("List: %d jobs, want 1", len(l))
			return
		}
		readDone <- ""
	}()
	for i := 0; i < 2; i++ {
		select {
		case msg := <-readDone:
			if msg != "" {
				t.Fatal(msg)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("read blocked behind a stalled journal fsync")
		}
	}
	// The submission itself is still wedged.
	select {
	case r := <-submitted:
		t.Fatalf("Submit returned while fsync was stalled (err %v)", r.err)
	case <-time.After(50 * time.Millisecond):
	}

	release()
	select {
	case r := <-submitted:
		if r.err != nil {
			t.Fatal(r.err)
		}
		if got := waitTerminal(t, r.j, 2*time.Minute); got.Status != StatusSucceeded {
			t.Fatalf("unwedged job: status %s (err %q)", got.Status, got.Error)
		}
	case <-time.After(time.Minute):
		t.Fatal("Submit still blocked after the fsync gate opened")
	}
}

// TestSubmitMarshalFailureIsLogged pins the silent-skip bugfix: a spec that
// fails to encode still runs, but the lost durability is reported instead of
// silently skipping the journal record.
func TestSubmitMarshalFailureIsLogged(t *testing.T) {
	orig := jsonMarshal
	jsonMarshal = func(any) ([]byte, error) { return nil, errors.New("boom") }
	defer func() { jsonMarshal = orig }()

	var (
		mu   sync.Mutex
		logs []string
	)
	fs := faultfs.NewMem(faultfs.Faults{})
	m := NewManager(Options{MaxConcurrent: 1, DataDir: "data", FS: fs,
		Logf: func(format string, args ...any) {
			mu.Lock()
			logs = append(logs, fmt.Sprintf(format, args...))
			mu.Unlock()
		}})
	defer m.Close()

	j, err := m.Submit(quickSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	if got := waitTerminal(t, j, 2*time.Minute); got.Status != StatusSucceeded {
		t.Fatalf("job status %s (err %q) — encode failure must not fail the run", got.Status, got.Error)
	}
	mu.Lock()
	defer mu.Unlock()
	for _, l := range logs {
		if strings.Contains(l, "encode spec") && strings.Contains(l, j.ID) {
			return
		}
	}
	t.Fatalf("marshal failure not logged; logs: %q", logs)
}

// TestCancelAfterTerminalStaysTerminal pins the cancel/finish race fix end
// to end: cancelling an already-finished job journals nothing that could
// flip it, and a restart over that journal restores the job terminal — not
// cancelled.
func TestCancelAfterTerminalStaysTerminal(t *testing.T) {
	dir := t.TempDir()
	m1 := NewManager(Options{MaxConcurrent: 1, DataDir: dir, Logf: t.Logf})
	j, err := m1.Submit(quickSpec(6))
	if err != nil {
		t.Fatal(err)
	}
	first := waitTerminal(t, j, 2*time.Minute)
	if first.Status != StatusSucceeded {
		t.Fatalf("job status %s (err %q)", first.Status, first.Error)
	}
	// Cancel after the terminal record: must be a no-op in memory and on
	// disk.
	if _, err := m1.Cancel(j.ID); err != nil {
		t.Fatal(err)
	}
	if got := j.Snapshot().Status; got != StatusSucceeded {
		t.Fatalf("terminal-then-cancel flipped status to %s", got)
	}
	m1.Close()

	m2 := NewManager(Options{MaxConcurrent: 1, DataDir: dir, Logf: t.Logf})
	defer m2.Close()
	restored, err := m2.Get(j.ID)
	if err != nil {
		t.Fatal(err)
	}
	got := restored.Snapshot()
	if got.Status != StatusSucceeded {
		t.Fatalf("restored status %s, want succeeded (err %q)", got.Status, got.Error)
	}
	if !sameBest(first.Result.Best, got.Result.Best) {
		t.Fatalf("restored result diverged: %+v != %+v", got.Result.Best, first.Result.Best)
	}
}
