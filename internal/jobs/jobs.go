// Package jobs turns pkg/nasaic's context-first Run API into a managed job
// service: submitted co-explorations run as bounded concurrent jobs that
// share one evaluation cache and memo bundle, stream per-episode events into
// a replayable ring buffer, and can be cancelled at any time. The HTTP layer
// in http.go exposes the manager as cmd/nasaicd's /v1/jobs API.
package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"nasaic/internal/faultfs"
	"nasaic/internal/journal"
	"nasaic/internal/tenant"
	"nasaic/pkg/nasaic"
)

// Status is a job's lifecycle state.
type Status string

const (
	StatusPending   Status = "pending"
	StatusRunning   Status = "running"
	StatusSucceeded Status = "succeeded"
	StatusFailed    Status = "failed"
	StatusCancelled Status = "cancelled"
)

// Terminal reports whether the status is final.
func (s Status) Terminal() bool {
	return s == StatusSucceeded || s == StatusFailed || s == StatusCancelled
}

// Spec is one job request. The zero value of every optional field selects
// the engine default, so `{"workload":"W3"}` is a complete submission.
type Spec struct {
	// Workload is W1, W2 or W3 (required).
	Workload string `json:"workload"`
	// Episodes is β; 0 selects the default (500).
	Episodes int `json:"episodes,omitempty"`
	// HWSteps is φ; nil selects the default (10).
	HWSteps *int `json:"hw_steps,omitempty"`
	// Seed drives the deterministic search; 0 selects the default (1).
	Seed int64 `json:"seed,omitempty"`
	// Optimizer is "rl" (default) or "ea".
	Optimizer string `json:"optimizer,omitempty"`
	// Refine toggles the exploit phase; nil selects the default (on).
	Refine *bool `json:"refine,omitempty"`
	// Workers bounds the goroutines that evaluate one batch of hardware
	// candidates; 0 selects GOMAXPROCS (capped at 16), and more than 64 is
	// refused.
	Workers int `json:"workers,omitempty"`
}

// options translates the spec into facade options (shared memos and event
// plumbing are added by the manager).
func (sp Spec) options() ([]nasaic.Option, error) {
	if sp.Workload == "" {
		return nil, fmt.Errorf("jobs: workload is required")
	}
	opts := []nasaic.Option{nasaic.WithWorkload(sp.Workload)}
	if sp.Episodes < 0 {
		return nil, fmt.Errorf("jobs: episodes must be non-negative")
	}
	if sp.Episodes > 0 {
		opts = append(opts, nasaic.WithEpisodes(sp.Episodes))
	}
	if sp.HWSteps != nil {
		opts = append(opts, nasaic.WithHWSteps(*sp.HWSteps))
	}
	if sp.Seed != 0 {
		opts = append(opts, nasaic.WithSeed(sp.Seed))
	}
	if sp.Optimizer != "" {
		opts = append(opts, nasaic.WithOptimizer(nasaic.Optimizer(sp.Optimizer)))
	}
	if sp.Refine != nil {
		opts = append(opts, nasaic.WithRefine(*sp.Refine))
	}
	if sp.Workers != 0 {
		opts = append(opts, nasaic.WithWorkers(sp.Workers))
	}
	return opts, nil
}

// validate applies the checks the engine makes before it explores — option
// values, a known workload, a valid configuration — so a spec the engine
// would refuse (or could not survive, like an unbounded φ) is rejected
// before it is journaled or queued.
func (sp Spec) validate() error {
	opts, err := sp.options()
	if err != nil {
		return err
	}
	if err := nasaic.Validate(opts...); err != nil {
		return fmt.Errorf("jobs: %w", err)
	}
	return nil
}

// Executor runs one granted job to completion. The default (nil) executor
// runs the exploration in-process through pkg/nasaic; internal/cluster's
// coordinator implements the same interface by dispatching the job to a
// worker replica over HTTP and proxying its SSE event stream back. The
// contract: Execute is called once the fair-share dispatcher grants the job a
// slot (after setRunning), delivers episode events through j.EmitEvent (or an
// event handler of its own), honours ctx cancellation, and returns the
// terminal result — a ctx error maps to StatusCancelled, any other error to
// StatusFailed, exactly like a local run.
type Executor interface {
	Execute(ctx context.Context, j *Job) (*nasaic.Result, error)
}

// DrainEstimator is optionally implemented by an Executor that knows about
// queue capacity beyond this manager (a cluster coordinator aggregating its
// workers). When present, quota rejections compute their Retry-After hint
// from the cluster-wide backlog and slot count instead of the single-node
// formula.
type DrainEstimator interface {
	// DrainEstimate returns the jobs queued beyond this manager and the
	// total execution slots draining them; ok is false when no estimate is
	// available (no healthy workers yet) and the caller falls back to the
	// single-node formula.
	DrainEstimate() (queued, slots int, ok bool)
}

// Options configures a Manager.
type Options struct {
	// MaxConcurrent bounds the jobs exploring at once; further submissions
	// queue as pending. <=0 selects 2.
	MaxConcurrent int
	// MaxHistory bounds the finished jobs retained for inspection; the
	// oldest terminal jobs are evicted first. <=0 selects 64.
	MaxHistory int
	// EventBuffer bounds each job's replayable event ring; once exceeded,
	// the oldest events are dropped (subscribers that far behind see a
	// gap). <=0 selects 4096.
	EventBuffer int
	// ShareMemos routes every job through one memo bundle the manager owns
	// (bit-identical; jobs warm-start each other). cmd/nasaicd always sets
	// it; false gives every job a private bundle.
	ShareMemos bool
	// MaxPending bounds the jobs queued for a concurrency slot; once
	// reached, Submit rejects further specs with ErrTooManyPending (the
	// HTTP layer maps it to 429) instead of queueing without bound. <=0
	// (the zero value) keeps the seed behavior of an unbounded queue.
	MaxPending int
	// CacheDir backs the memos with the persistent on-disk warm tier under
	// this directory, so a restarted daemon starts warm. With ShareMemos
	// the manager loads its bundle from here at startup and saves it in
	// FlushCaches (periodic, via cmd/nasaicd, and on Close); without it,
	// every job loads and saves its own bundle (see nasaic.WithCacheDir).
	// Empty keeps the warm tier off.
	CacheDir string
	// DataDir enables the durable job journal under DataDir/journal: every
	// submission, worker binding, cancel request and terminal outcome is
	// fsynced to a write-ahead log before it becomes observable over HTTP,
	// the terminal record carrying the job's event ring. A new manager over
	// the same directory restores terminal jobs (event rings included, so
	// SSE Last-Event-ID replay spans restarts) and re-executes the jobs that
	// were pending or running when the process died from seq 0 — the seeded
	// determinism suite guarantees the re-run re-emits the same events under
	// the same sequence numbers and converges to the bit-identical result.
	// Episode events themselves are never journaled. Empty keeps the manager
	// memory-only (the seed behavior). Journal damage (torn tails, bit
	// flips, version skew) is truncated away at startup, never a refusal to
	// start; if the journal cannot be opened at all the manager degrades to
	// memory-only and says so through Logf.
	DataDir string
	// FS overrides the filesystem the journal writes through (fault
	// injection in tests). Nil selects the real one.
	FS faultfs.FS
	// Logf receives durability degradation warnings (journal append
	// failures, recovery repairs). Nil discards them.
	Logf func(format string, args ...any)
	// Tenants is the API-key registry (cmd/nasaicd's -tenants file). The
	// manager uses it to re-attach recovered jobs to their tenants' current
	// limits; authentication itself happens in the HTTP layer. Nil means
	// auth is off and every job belongs to the anonymous tenant.
	Tenants *tenant.Registry
	// Executor replaces the local in-process runner: granted jobs are handed
	// to it instead of pkg/nasaic (cluster coordinators dispatch them to
	// worker replicas). Nil selects the local runner — the standalone and
	// worker behavior.
	Executor Executor
}

func (o Options) maxConcurrent() int {
	if o.MaxConcurrent > 0 {
		return o.MaxConcurrent
	}
	return 2
}

func (o Options) maxHistory() int {
	if o.MaxHistory > 0 {
		return o.MaxHistory
	}
	return 64
}

func (o Options) eventBuffer() int {
	if o.EventBuffer > 0 {
		return o.EventBuffer
	}
	return 4096
}

func (o Options) logf() func(string, ...any) {
	if o.Logf != nil {
		return o.Logf
	}
	return func(string, ...any) {}
}

// ErrClosed is returned by Submit after the manager shut down.
var ErrClosed = errors.New("jobs: manager closed")

// ErrTooManyPending is returned by Submit when Options.MaxPending jobs are
// already waiting for a concurrency slot.
var ErrTooManyPending = errors.New("jobs: too many pending jobs")

// ErrNotFound is returned for unknown job IDs (including IDs the calling
// tenant is not allowed to see — existence of other tenants' jobs is not
// leaked).
var ErrNotFound = errors.New("jobs: job not found")

// QuotaError is the Submit rejection when a pending-jobs bound is hit —
// either the caller's per-tenant quota or the manager-wide MaxPending. It
// matches ErrTooManyPending under errors.Is (the HTTP layer maps both to
// 429) and carries a Retry-After drain hint.
type QuotaError struct {
	// Tenant is the quota owner ("" for the manager-wide bound).
	Tenant string
	// Limit is the bound that was hit; Pending the jobs already queued
	// against it.
	Limit   int
	Pending int
	// RetryAfter is a coarse hint for when a slot may free up (HTTP
	// Retry-After); it is an estimate, not a promise.
	RetryAfter time.Duration
}

func (e *QuotaError) Error() string {
	if e.Tenant == "" {
		return fmt.Sprintf("%v (max %d)", ErrTooManyPending, e.Limit)
	}
	return fmt.Sprintf("jobs: tenant %q pending quota exhausted (%d/%d)", e.Tenant, e.Pending, e.Limit)
}

func (e *QuotaError) Is(target error) bool { return target == ErrTooManyPending }

// tenantState is one tenant's slice of the fair-share dispatcher: its FIFO
// queue of runnable jobs and its pending/running accounting. Guarded by
// Manager.mu.
type tenantState struct {
	tn      *tenant.Tenant // resolved limits; nil means unlimited
	queue   []*Job         // submission-ordered jobs waiting for a slot
	pending int            // queued jobs, incl. submissions being journaled
	running int            // jobs holding a concurrency slot
}

func (ts *tenantState) maxConcurrent() int {
	if ts.tn != nil {
		return ts.tn.Limits.MaxConcurrent
	}
	return 0
}

// Manager owns the job set: submission, fair-share scheduling across
// tenants, streaming and cancellation. All methods are safe for concurrent
// use.
type Manager struct {
	opts   Options
	shared *nasaic.SharedMemos
	jn     *journal.Journal
	logf   func(string, ...any)
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	// mu guards the job table and dispatcher state. It is hot — every
	// Submit/Get/List/SSE wakeup takes it — so nothing slow may run under
	// it: PR 8 fixed a group-commit fsync performed while holding it, and
	// the //lint:guard annotation makes that class of bug a build error
	// (nasaiclint journallock/lockio).
	mu      sync.Mutex //lint:guard journal,io
	closed  bool
	seq     int
	pending int // jobs waiting for a concurrency slot (MaxPending bound)
	jobs    map[string]*Job
	order   []string // submission order, for listing and history eviction

	// Fair-share dispatcher state: per-tenant queues, a deterministic
	// round-robin ring over tenant names (sorted, with a rotating cursor)
	// and the global running count. One greedy tenant fills only its own
	// queue; grants cycle across every tenant with runnable work.
	sched     map[string]*tenantState
	ring      []string // sorted tenant names
	lastGrant string   // tenant granted most recently; the next scan starts after it
	running   int      // jobs holding slots, all tenants
	grantSeq  int64    // monotone grant counter (fairness observability)
}

// NewManager builds a manager; Close releases it. With Options.DataDir set
// it opens (or recovers) the durable journal first: terminal jobs reappear
// in the history with their event rings, and interrupted jobs are
// re-executed from their journaled specs. Recovery never fails construction
// — journal damage truncates away, and an unopenable journal degrades to a
// memory-only manager (reported through Options.Logf).
func NewManager(opts Options) *Manager {
	ctx, cancel := context.WithCancel(context.Background()) //lint:allow ctxplumb manager lifecycle root: jobs outlive any caller; Close cancels it
	m := &Manager{
		opts:   opts,
		logf:   opts.logf(),
		ctx:    ctx,
		cancel: cancel,
		jobs:   make(map[string]*Job),
		sched:  make(map[string]*tenantState),
	}
	if opts.ShareMemos {
		// Warm the bundle from the persistent tier at startup, so even the
		// first job benefits from a previous daemon's work.
		m.shared = nasaic.NewSharedMemos()
		m.shared.LoadDir(opts.CacheDir)
	}
	if opts.DataDir != "" {
		jn, err := journal.Open(filepath.Join(opts.DataDir, "journal"), journal.Options{FS: opts.FS})
		if err != nil {
			m.logf("jobs: journal disabled, jobs will not survive restarts: %v", err)
		} else {
			m.jn = jn
			if rec := jn.Recovery(); rec.TruncatedBytes > 0 || rec.SkippedSegments > 0 {
				m.logf("jobs: journal recovery repaired damage: truncated %d bytes, skipped %d segments (%d records kept)",
					rec.TruncatedBytes, rec.SkippedSegments, rec.Records)
			}
			m.recover(jn.States())
		}
	}
	return m
}

// recover rebuilds the job set from the journal's reduced states:
// terminal jobs go straight into history with their event rings, jobs with a
// journaled cancel request but no terminal record settle as cancelled (with
// an empty ring, unless an older build journaled its events), and everything
// else re-executes from its spec with an empty ring (determinism makes the
// re-run bit-identical, re-emitting its events from seq 0).
// Every job re-attaches to its journaled tenant — quota accounting and API
// scoping survive the restart — with pre-tenancy records (no tenant field)
// mapping to the anonymous tenant. Re-executed jobs bypass the pending
// quota: they were admitted before the crash and must not be dropped by it.
func (m *Manager) recover(states []*journal.JobState) {
	// Settled jobs and drop warnings are collected under the lock and
	// journaled/logged after it: the journal group-commits an fsync, and
	// nothing slow may run under m.mu (enforced by nasaiclint). A crash
	// before a deferred settlement record lands is harmless — the next
	// recovery re-derives the same settlement from the CancelRequested
	// marker, and the HTTP surface is not serving yet during NewManager, so
	// the settled jobs are still this goroutine's alone.
	var settles []*Job
	var dropped []string
	m.mu.Lock()
	for _, st := range states {
		var n int
		if _, err := fmt.Sscanf(st.ID, "job-%d", &n); err == nil && n > m.seq {
			m.seq = n // later submissions continue the journaled ID sequence
		}
		var spec Spec
		if err := json.Unmarshal(st.Spec, &spec); err != nil {
			dropped = append(dropped, fmt.Sprintf("jobs: recovery: dropping job %s (undecodable spec: %v)", st.ID, err))
			continue
		}
		name := st.Tenant
		if name == "" {
			name = tenant.AnonymousName
		}
		tn := m.opts.Tenants.ByName(name)
		j := &Job{
			ID:      st.ID,
			Spec:    spec,
			Tenant:  name,
			created: orNow(st.Created),
			maxEv:   m.eventRingCap(tn),
			changed: make(chan struct{}),
			jn:      m.jn,
			logf:    m.logf,
		}
		specErr := spec.validate()
		switch {
		case st.Terminal():
			j.restoreTerminal(st, Status(st.Status))
		case st.CancelRequested:
			// Cancelled mid-run, killed before the terminal record landed:
			// honour the cancel rather than re-executing to completion, and
			// journal the settlement so the next recovery is direct.
			j.restoreTerminal(st, StatusCancelled)
			settles = append(settles, j)
		case specErr != nil:
			// A spec admitted before the engine's checks tightened (an
			// unbounded φ, say) must not re-execute: running it could be
			// what killed the previous process. Settle it failed instead.
			j.restoreTerminal(st, StatusFailed)
			j.err = specErr
			settles = append(settles, j)
		default:
			// Pending or running at crash time: re-execute from the spec
			// through the fair dispatcher, under the job's own tenant, with an
			// empty ring. An unbound job re-emits deterministically from seq
			// 0; with a journaled cluster binding the run is still live on a
			// worker replica, and the cluster executor re-attaches and replays
			// the worker's stream from seq 0.
			jctx, jcancel := context.WithCancel(m.ctx)
			j.status = StatusPending
			j.cancel = jcancel
			j.slot = make(chan struct{})
			j.worker, j.remoteID = st.Worker, st.RemoteID
			m.enqueueLocked(j, tn)
			m.wg.Add(1)
			go m.run(j, jctx)
		}
		m.jobs[st.ID] = j
		m.order = append(m.order, st.ID)
	}
	forgotten := m.evictLocked()
	m.dispatchLocked()
	m.mu.Unlock()
	// Settlements precede the Forget records, exactly as when the jobs
	// finished live, so journal reduction never sees a finish after a
	// forget resurrect a ghost state.
	for _, j := range settles {
		j.journal(j.finishedRecord(j.status))
	}
	m.journalForgets(forgotten)
	for _, msg := range dropped {
		m.logf("%s", msg)
	}
}

// orNow guards restored timestamps against zero values from older records.
func orNow(t time.Time) time.Time {
	if t.IsZero() {
		return time.Now()
	}
	return t
}

// orAfter restores a timestamp like orNow and additionally clamps it to
// floor: old records can carry a zero started/finished alongside a set
// sibling, and naively restoring each in isolation can order finished
// before started (or started before created). Recovery enforces
// created <= started <= finished.
func orAfter(t, floor time.Time) time.Time {
	if restored := orNow(t); restored.After(floor) {
		return restored
	}
	return floor
}

// eventRingCap is the per-job event ring bound: the manager-wide default,
// lowered (never raised) by the tenant's MaxEventRing memory limit.
func (m *Manager) eventRingCap(tn *tenant.Tenant) int {
	cap := m.opts.eventBuffer()
	if tn != nil && tn.Limits.MaxEventRing > 0 && tn.Limits.MaxEventRing < cap {
		cap = tn.Limits.MaxEventRing
	}
	return cap
}

// Submit registers a job for the anonymous tenant: the single-tenant entry
// point used when auth is off (and by pre-tenancy callers).
func (m *Manager) Submit(spec Spec) (*Job, error) {
	return m.SubmitAs(m.opts.Tenants.ByName(tenant.AnonymousName), spec)
}

// SubmitAs validates the spec, registers a pending job owned by the tenant
// and starts it as soon as the fair-share dispatcher grants it a slot. It
// returns the job immediately. Submissions beyond Options.MaxPending or the
// tenant's MaxPending quota are rejected with a QuotaError (ErrTooManyPending
// under errors.Is; HTTP 429 with a Retry-After hint). A nil tenant is the
// anonymous tenant.
func (m *Manager) SubmitAs(tn *tenant.Tenant, spec Spec) (*Job, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	if tn == nil {
		tn = tenant.Anonymous()
	}

	// Phase 1 (under mu): admission. Check quotas, reserve the pending
	// accounting and the job ID.
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, ErrClosed
	}
	ts := m.tenantStateLocked(tn.Name, tn)
	if m.opts.MaxPending > 0 && m.pending >= m.opts.MaxPending {
		qe := &QuotaError{Limit: m.opts.MaxPending, Pending: m.pending, RetryAfter: m.retryAfterLocked(ts)}
		m.mu.Unlock()
		return nil, qe
	}
	if lim := tn.Limits.MaxPending; lim > 0 && ts.pending >= lim {
		qe := &QuotaError{Tenant: tn.Name, Limit: lim, Pending: ts.pending, RetryAfter: m.retryAfterLocked(ts)}
		m.mu.Unlock()
		return nil, qe
	}
	ts.pending++
	m.pending++
	m.seq++
	id := fmt.Sprintf("job-%d", m.seq)
	jctx, jcancel := context.WithCancel(m.ctx)
	j := &Job{
		ID:      id,
		Spec:    spec,
		Tenant:  tn.Name,
		created: time.Now(),
		status:  StatusPending,
		maxEv:   m.eventRingCap(tn),
		changed: make(chan struct{}),
		cancel:  jcancel,
		slot:    make(chan struct{}),
		jn:      m.jn,
		logf:    m.logf,
	}
	// Close must wait for this submission even if it lands between the two
	// critical sections: Add now (ordered before Close's Wait by mu) so an
	// accepted job always drains to a terminal state.
	m.wg.Add(1)
	m.mu.Unlock()

	// Phase 2 (no locks): durability. The submission is journaled (and
	// fsynced) before the job becomes observable — once a client holds the
	// job ID, a crash cannot forget it. The fsync deliberately happens
	// outside m.mu: a slow disk stalls this submission, never concurrent
	// Get/List/Cancel traffic.
	if m.jn != nil {
		if specJSON, err := jsonMarshal(spec); err != nil {
			// The job still runs, but a restart would forget it: surface the
			// durability degradation instead of skipping the journal silently.
			m.logf("jobs: journal submit %s: encode spec: %v (job will not survive a restart)", id, err)
		} else {
			j.journal(journal.Record{
				Type:   journal.TypeSubmitted,
				Job:    id,
				Tenant: tn.Name,
				Time:   j.created,
				Spec:   specJSON,
			})
		}
	}

	// Phase 3 (under mu): publication. Register the job, enter it into its
	// tenant's queue and let the dispatcher hand out any free slots.
	m.mu.Lock()
	ts.pending-- // enqueueLocked re-reserves; the phase-1 hold ends here
	m.pending--
	m.jobs[id] = j
	m.order = append(m.order, id)
	forgotten := m.evictLocked()
	m.enqueueLocked(j, tn)
	m.dispatchLocked()
	m.mu.Unlock()

	m.journalForgets(forgotten)
	go m.run(j, jctx)
	return j, nil
}

// jsonMarshal is json.Marshal, indirected so tests can fault the encoding
// of a submitted spec (every field of Spec marshals cleanly in practice).
var jsonMarshal = json.Marshal

// tenantStateLocked returns (creating on demand) the tenant's dispatcher
// state and keeps the round-robin ring sorted; callers hold m.mu. The
// resolved tenant limits refresh on every submission, so a reloaded registry
// (a future -tenants reload) would take effect for new work.
func (m *Manager) tenantStateLocked(name string, tn *tenant.Tenant) *tenantState {
	ts, ok := m.sched[name]
	if !ok {
		ts = &tenantState{}
		m.sched[name] = ts
		i := sort.SearchStrings(m.ring, name)
		m.ring = append(m.ring, "")
		copy(m.ring[i+1:], m.ring[i:])
		m.ring[i] = name
	}
	if tn != nil {
		ts.tn = tn
	}
	return ts
}

// enqueueLocked appends the job to its tenant's runnable queue; callers
// hold m.mu and call dispatchLocked afterwards.
func (m *Manager) enqueueLocked(j *Job, tn *tenant.Tenant) {
	ts := m.tenantStateLocked(j.Tenant, tn)
	ts.queue = append(ts.queue, j)
	ts.pending++
	m.pending++
	j.queued = true
}

// ringStartLocked is the ring index the next grant scan starts from: the
// first tenant sorted after the last-granted name. Anchoring the cursor to a
// name rather than an index keeps the rotation fair when tenants register
// mid-stream — a newcomer slots into the cycle exactly where its name sorts,
// instead of inheriting whatever position the old cursor happened to hold.
func (m *Manager) ringStartLocked() int {
	if len(m.ring) == 0 || m.lastGrant == "" {
		return 0
	}
	i := sort.SearchStrings(m.ring, m.lastGrant)
	if i < len(m.ring) && m.ring[i] == m.lastGrant {
		i++
	}
	return i % len(m.ring)
}

// dispatchLocked is the fair-share scheduler: while global concurrency
// slots are free, it scans the tenant ring round-robin — sorted tenant
// names, starting after the last grant's tenant — and grants one job to the
// first tenant that has runnable work and headroom under its own
// MaxConcurrent quota. Tenant order is deterministic so fairness is
// testable; a tenant with a deep queue gets exactly one grant per ring
// pass, which bounds any other tenant's wait to one pass.
func (m *Manager) dispatchLocked() {
	for m.running < m.opts.maxConcurrent() {
		granted := false
		start := m.ringStartLocked()
		for i := 0; i < len(m.ring); i++ {
			name := m.ring[(start+i)%len(m.ring)]
			ts := m.sched[name]
			if len(ts.queue) == 0 {
				continue
			}
			if lim := ts.maxConcurrent(); lim > 0 && ts.running >= lim {
				continue
			}
			j := ts.queue[0]
			ts.queue = ts.queue[1:]
			j.queued = false
			j.granted = true
			ts.pending--
			m.pending--
			ts.running++
			m.running++
			m.grantSeq++
			j.grant = m.grantSeq
			m.lastGrant = name
			close(j.slot)
			granted = true
			break
		}
		if !granted {
			return
		}
	}
}

// dequeue removes a job that is abandoning its wait for a slot (cancelled
// while pending). It reports false when the grant already happened — the
// caller then owns a running slot and must release it via release.
func (m *Manager) dequeue(j *Job) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if j.granted {
		return false
	}
	ts := m.sched[j.Tenant]
	for i, q := range ts.queue {
		if q == j {
			ts.queue = append(ts.queue[:i], ts.queue[i+1:]...)
			break
		}
	}
	j.queued = false
	ts.pending--
	m.pending--
	return true
}

// release returns a finished job's concurrency slot and lets the dispatcher
// hand it to the next tenant in the ring.
func (m *Manager) release(j *Job) {
	m.mu.Lock()
	m.sched[j.Tenant].running--
	m.running--
	m.dispatchLocked()
	m.mu.Unlock()
}

// retryAfterLocked estimates when the tenant's next slot could free up: a
// coarse one-second-per-queued-job-per-slot drain hint for the HTTP
// Retry-After header. Callers hold m.mu. In cluster mode the executor knows
// the real drain capacity — the 429 races happen when every worker is
// saturated, so the estimate aggregates the workers' queue depths and slot
// counts instead of reusing the single-node formula.
func (m *Manager) retryAfterLocked(ts *tenantState) time.Duration {
	slots := m.opts.maxConcurrent()
	queued := ts.pending
	if de, ok := m.opts.Executor.(DrainEstimator); ok {
		if q, s, ok := de.DrainEstimate(); ok && s > 0 {
			queued += q
			slots = s
		}
	}
	if lim := ts.maxConcurrent(); lim > 0 && lim < slots {
		slots = lim
	}
	if slots < 1 {
		slots = 1
	}
	return time.Duration(1+queued/slots) * time.Second
}

// run executes one job end to end on its own goroutine.
func (m *Manager) run(j *Job, ctx context.Context) {
	defer m.wg.Done()
	defer j.cancel()

	// Wait for the dispatcher's grant, unless cancelled while pending.
	select {
	case <-j.slot:
	case <-ctx.Done():
		if m.dequeue(j) {
			j.finish(nil, ctx.Err())
			return
		}
		// The grant raced the cancel: the job holds a slot after all. Fall
		// through to the running path, which sees ctx.Err() and releases it.
	}
	defer m.release(j)
	if ctx.Err() != nil {
		j.finish(nil, ctx.Err())
		return
	}

	j.setRunning()
	res, err := m.executor().Execute(ctx, j)
	j.finish(res, err)
}

// executor resolves the job runner: the configured one (cluster dispatch) or
// the in-process engine.
func (m *Manager) executor() Executor {
	if m.opts.Executor != nil {
		return m.opts.Executor
	}
	return localExecutor{m}
}

// localExecutor is the default Executor: the exploration runs in this
// process through pkg/nasaic, sharing the manager's memo bundle and warm
// tier, with episode events appended straight onto the job's ring.
type localExecutor struct{ m *Manager }

func (e localExecutor) Execute(ctx context.Context, j *Job) (*nasaic.Result, error) {
	opts, err := j.Spec.options()
	if err != nil { // unreachable: validated at submit
		return nil, err
	}
	if e.m.shared != nil {
		opts = append(opts, nasaic.WithSharedMemos(e.m.shared))
	} else {
		opts = append(opts, nasaic.WithCacheDir(e.m.opts.CacheDir))
	}
	opts = append(opts, nasaic.WithEventHandler(j.appendEvent))
	return nasaic.Run(ctx, opts...)
}

// Load reports the manager's current queue depth, running count and
// concurrency slots — the worker-side numbers a cluster coordinator's
// health probes aggregate for placement and Retry-After estimates.
func (m *Manager) Load() (pending, running, slots int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.pending, m.running, m.opts.maxConcurrent()
}

// Get returns the job with the given ID (the manager's unscoped view).
func (m *Manager) Get(id string) (*Job, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return nil, ErrNotFound
	}
	return j, nil
}

// GetFor returns the job with the given ID as seen by the tenant: a job
// owned by another tenant is ErrNotFound (not 403 — existence is not
// leaked) unless the caller is an admin. A nil tenant sees everything.
func (m *Manager) GetFor(tn *tenant.Tenant, id string) (*Job, error) {
	j, err := m.Get(id)
	if err != nil {
		return nil, err
	}
	if !tn.CanSee(j.Tenant) {
		return nil, ErrNotFound
	}
	return j, nil
}

// Cancel requests cancellation of the job with the given ID. Cancelling a
// terminal job is a no-op; the returned job reflects the state at call time.
// The request is journaled before it takes effect, so a crash between the
// cancel and the terminal record still settles the job as cancelled on
// recovery instead of re-executing it to completion.
func (m *Manager) Cancel(id string) (*Job, error) {
	return m.CancelFor(nil, id)
}

// CancelFor is Cancel scoped to the tenant's view (see GetFor).
func (m *Manager) CancelFor(tn *tenant.Tenant, id string) (*Job, error) {
	j, err := m.GetFor(tn, id)
	if err != nil {
		return nil, err
	}
	j.requestCancel()
	j.cancel()
	return j, nil
}

// List returns every retained job in submission order (the manager's
// unscoped view).
func (m *Manager) List() []*Job {
	return m.ListFor(nil)
}

// ListFor returns the retained jobs the tenant may see, in submission
// order: its own for a regular tenant, everything for an admin or a nil
// (internal) view.
func (m *Manager) ListFor(tn *tenant.Tenant) []*Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Job, 0, len(m.order))
	for _, id := range m.order {
		if j := m.jobs[id]; tn.CanSee(j.Tenant) {
			out = append(out, j)
		}
	}
	return out
}

// Close cancels every job, waits for them to drain, flushes the warm tier,
// seals the journal and rejects further submissions. Submissions racing
// Close either complete fully (their job reaches a terminal, journaled
// state before Close returns) or fail with ErrClosed — never anything in
// between.
func (m *Manager) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		m.wg.Wait()
		return
	}
	m.closed = true
	m.mu.Unlock()
	m.cancel()
	m.wg.Wait()
	_ = m.FlushCaches()
	if m.jn != nil {
		if err := m.jn.Close(); err != nil {
			m.logf("jobs: journal close: %v", err)
		}
	}
}

// FlushCaches snapshots the manager's memo bundle into Options.CacheDir so
// a restarted daemon starts warm; a no-op (nil) without both ShareMemos and
// CacheDir. cmd/nasaicd calls it periodically and Close calls it at
// shutdown; each flush atomically replaces the previous snapshot. (Without
// ShareMemos each job persists its own bundle when its run finishes.)
func (m *Manager) FlushCaches() error {
	if m.shared == nil {
		return nil
	}
	return m.shared.SaveDir(m.opts.CacheDir)
}

// evictLocked drops the oldest terminal jobs beyond the history bound and
// returns their IDs for journaling (via journalForgets, outside m.mu).
// Non-terminal jobs are never evicted. Evictions are journaled so the
// journal's state (and the next recovery) stays in step with the history —
// and so compaction can drop the evicted jobs' records entirely.
func (m *Manager) evictLocked() []string {
	excess := len(m.order) - m.opts.maxHistory()
	if excess <= 0 {
		return nil
	}
	var forgotten []string
	kept := m.order[:0]
	for _, id := range m.order {
		if excess > 0 && m.jobs[id].Snapshot().Status.Terminal() {
			delete(m.jobs, id)
			forgotten = append(forgotten, id)
			excess--
			continue
		}
		kept = append(kept, id)
	}
	m.order = kept
	return forgotten
}

// journalForgets appends Forget records for evicted jobs — outside m.mu,
// for the same slow-disk reason Submit journals outside it. A crash between
// the in-memory eviction and this fsync resurrects the evicted jobs on
// recovery, which is harmless: they are terminal and evict again at once.
func (m *Manager) journalForgets(ids []string) {
	if m.jn == nil {
		return
	}
	for _, id := range ids {
		if err := m.jn.Append(journal.Record{Type: journal.TypeForget, Job: id}); err != nil && !errors.Is(err, journal.ErrClosed) {
			m.logf("jobs: journal append (%s %s): %v", journal.TypeForget, id, err)
		}
	}
}

// Job is one managed co-exploration. Fields are immutable after creation;
// mutable state is read through Snapshot, Events and Wait.
type Job struct {
	ID   string
	Spec Spec
	// Tenant is the owning tenant's name; journaled with the submission so
	// quota accounting and API scoping survive restarts.
	Tenant string

	cancel  context.CancelFunc
	created time.Time
	maxEv   int
	slot    chan struct{}        // closed by the dispatcher when the job may run
	jn      *journal.Journal     // nil when the manager is memory-only
	logf    func(string, ...any) // durability warnings (never nil when jn set)

	// Dispatcher bookkeeping, guarded by the Manager's mu (not j.mu).
	queued  bool  // sitting in its tenant's runnable queue
	granted bool  // slot granted (slot closed)
	grant   int64 // grant sequence number; fairness assertions in tests

	mu       sync.Mutex
	status   Status
	started  time.Time
	finished time.Time
	events   []nasaic.Event
	firstSeq int // sequence number of events[0] (ring drops the oldest)
	result   *nasaic.Result
	err      error
	changed  chan struct{} // closed and replaced on every state change
	// worker/remoteID are the cluster binding: which worker replica runs the
	// job and under which remote job ID. Journaled (TypeAssigned) so a
	// restarted coordinator re-attaches instead of re-dispatching.
	worker   string
	remoteID string
}

// Snapshot is a point-in-time copy of a job's mutable state.
type Snapshot struct {
	ID string `json:"id"`
	// Tenant is the owning tenant; omitted for pre-tenancy (anonymous) jobs'
	// wire compatibility only when empty, which cannot happen for new jobs.
	Tenant     string     `json:"tenant,omitempty"`
	Spec       Spec       `json:"spec"`
	Status     Status     `json:"status"`
	CreatedAt  time.Time  `json:"created_at"`
	StartedAt  *time.Time `json:"started_at,omitempty"`
	FinishedAt *time.Time `json:"finished_at,omitempty"`
	// Episodes is the number of events recorded so far (completed episodes).
	Episodes int    `json:"episodes"`
	Error    string `json:"error,omitempty"`
	// Result is the run's outcome: complete on success, partial (best-so-
	// far) when cancelled mid-run, nil while pending/running.
	Result *nasaic.Result `json:"result,omitempty"`
}

// Snapshot copies the job's current state.
func (j *Job) Snapshot() Snapshot {
	j.mu.Lock()
	defer j.mu.Unlock()
	s := Snapshot{
		ID:        j.ID,
		Tenant:    j.Tenant,
		Spec:      j.Spec,
		Status:    j.status,
		CreatedAt: j.created,
		Episodes:  j.firstSeq + len(j.events),
		Result:    j.result,
	}
	if !j.started.IsZero() {
		t := j.started
		s.StartedAt = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		s.FinishedAt = &t
	}
	if j.err != nil {
		s.Error = j.err.Error()
	}
	return s
}

// Err returns the job's terminal error (nil while running or on success).
func (j *Job) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Result returns the job's result (nil until terminal; partial after
// cancellation).
func (j *Job) Result() *nasaic.Result {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result
}

// Events returns the buffered events with sequence numbers >= from, the
// sequence number of the first returned event, and a channel that is closed
// on the next state change (new event or status transition). A from older
// than the ring start snaps forward to the oldest retained event; callers
// detect the gap by the returned start exceeding from (the HTTP layer turns
// it into an explicit `reset` frame for SSE clients).
func (j *Job) Events(from int) ([]nasaic.Event, int, <-chan struct{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	start := from - j.firstSeq
	if start < 0 {
		start = 0
	}
	var out []nasaic.Event
	if start < len(j.events) {
		out = append(out, j.events[start:]...)
	}
	return out, j.firstSeq + start, j.changed
}

// requestCancel journals the cancel request, atomically with the terminal
// check: finish journals the terminal record under the same j.mu, so the
// old unlocked check-then-append race — job finishes between Done() and the
// cancel append, journaling a cancel after the terminal record — cannot
// happen. On a terminal job this is a no-op (and the journal reduction
// additionally ignores cancels on terminal states, as defense in depth).
func (j *Job) requestCancel() {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status.Terminal() {
		return
	}
	j.journal(journal.Record{Type: journal.TypeCancel, Job: j.ID})
}

// Done reports whether the job reached a terminal status.
func (j *Job) Done() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status.Terminal()
}

// Wait blocks until the job is terminal or ctx is done.
func (j *Job) Wait(ctx context.Context) error {
	for {
		j.mu.Lock()
		terminal := j.status.Terminal()
		ch := j.changed
		j.mu.Unlock()
		if terminal {
			return nil
		}
		select {
		case <-ch:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// NextSeq returns the sequence number the next episode event will carry —
// the resume point (Last-Event-ID + 1) a cluster coordinator streams a
// worker replica from.
func (j *Job) NextSeq() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.firstSeq + len(j.events)
}

// Assignment returns the job's cluster binding: the worker replica's base
// URL and the remote job ID, or empty strings for an unbound (local) job.
func (j *Job) Assignment() (worker, remoteID string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.worker, j.remoteID
}

// SetAssignment records the job→worker binding, journaling it before it
// takes effect so a coordinator restart re-attaches to the in-flight remote
// run. Empty strings clear the binding (the worker died; the job is being
// re-dispatched and re-execution is safe because runs are deterministic).
func (j *Job) SetAssignment(worker, remoteID string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.journal(journal.Record{Type: journal.TypeAssigned, Job: j.ID, Worker: worker, Remote: remoteID})
	j.worker, j.remoteID = worker, remoteID
}

// EmitEvent records one remotely-produced episode event under its origin
// sequence number. Duplicates below the ring head are dropped (a re-attached
// or re-dispatched worker replays its deterministic prefix; the coordinator
// already holds those events); a sequence jump means the worker evicted the
// range before the coordinator could attach, so the local ring skips forward
// — subscribers behind the gap see an explicit reset frame, exactly as for
// local ring eviction. Like a local event it is not journaled: the ring
// reaches the journal on the terminal record.
func (j *Job) EmitEvent(seq int, e nasaic.Event) {
	j.mu.Lock()
	defer j.mu.Unlock()
	next := j.firstSeq + len(j.events)
	if seq < next {
		return
	}
	if seq > next {
		j.skipToLocked(seq)
	}
	j.emitLocked(e)
}

// SkipTo acknowledges a gap announced by a worker's reset frame: events
// [NextSeq, seq) are unrecoverable (evicted from the worker's bounded ring
// while the coordinator was detached), so the local ring skips forward and
// subscribers see the same reset. A seq at or behind NextSeq is a no-op.
func (j *Job) SkipTo(seq int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if seq > j.firstSeq+len(j.events) {
		j.skipToLocked(seq)
		j.notifyLocked()
	}
}

// skipToLocked drops the buffered prefix so the ring restarts (contiguous)
// at seq; callers hold j.mu and have checked seq is ahead of the ring.
func (j *Job) skipToLocked(seq int) {
	j.events = j.events[:0]
	j.firstSeq = seq
}

// journal appends one record to the durable journal (fsynced before
// return), so the mutation it describes is on disk before it becomes
// observable. Append failures degrade durability, never the job: they are
// reported through logf and the in-memory state proceeds regardless.
func (j *Job) journal(rec journal.Record) {
	if j.jn == nil {
		return
	}
	if err := j.jn.Append(rec); err != nil && !errors.Is(err, journal.ErrClosed) {
		j.logf("jobs: journal append (%s %s): %v", rec.Type, rec.Job, err)
	}
}

// restoreTerminal rebuilds a terminal job from its journaled state: event
// ring (so SSE Last-Event-ID replay spans restarts), timestamps, error and
// result. Undecodable events truncate the ring at the first bad entry rather
// than leaving a hole mid-stream; the job's own ring bound caps what is kept.
func (j *Job) restoreTerminal(st *journal.JobState, status Status) {
	j.status = status
	j.cancel = func() {} // nothing to cancel; Close/Cancel stay safe to call
	j.started = orAfter(st.Started, j.created)
	j.finished = orAfter(st.Finished, j.started)
	j.firstSeq = st.FirstSeq
	for _, raw := range st.Events {
		ev, err := nasaic.DecodeEvent(raw)
		if err != nil {
			j.logf("jobs: recovery: job %s: truncating event ring at seq %d (undecodable event: %v)",
				j.ID, j.firstSeq+len(j.events), err)
			break
		}
		j.pushEventLocked(ev)
	}
	switch {
	case status == StatusCancelled:
		j.err = context.Canceled
	case st.Error != "":
		j.err = errors.New(st.Error)
	}
	if len(st.Result) > 0 {
		var res nasaic.Result
		if err := json.Unmarshal(st.Result, &res); err != nil {
			j.logf("jobs: recovery: job %s: dropping undecodable result: %v", j.ID, err)
		} else {
			j.result = &res
		}
	}
}

// appendEvent records one locally produced episode event.
func (j *Job) appendEvent(e nasaic.Event) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.emitLocked(e)
}

// emitLocked records one live event under the next sequence number and
// wakes subscribers. Nothing is journaled: the ring reaches the journal on
// the terminal record, and an interrupted run re-emits it deterministically.
// Callers hold j.mu.
func (j *Job) emitLocked(e nasaic.Event) {
	j.pushEventLocked(e)
	j.notifyLocked()
}

// pushEventLocked appends e to the ring and drops the oldest event past the
// ring bound. Callers hold j.mu, or own j exclusively during recovery.
func (j *Job) pushEventLocked(e nasaic.Event) {
	j.events = append(j.events, e)
	if len(j.events) > j.maxEv {
		j.events = append(j.events[:0], j.events[1:]...)
		j.firstSeq++
	}
}

func (j *Job) setRunning() {
	j.mu.Lock()
	j.status = StatusRunning
	j.started = time.Now()
	j.notifyLocked()
	j.mu.Unlock()
}

// finish records the terminal state. A context error maps to
// StatusCancelled (keeping the partial result); any other error to
// StatusFailed. The result's engine handle is dropped — retained history
// must not pin every job's evaluator, caches and controller in memory.
// The terminal record (status, error, result, event ring) journals before
// the status flips, so a crash after any client saw the job terminal
// replays it terminal, stream included.
func (j *Job) finish(res *nasaic.Result, err error) {
	if res != nil {
		res.DetachEngine()
	}
	status := StatusSucceeded
	switch {
	case err == nil:
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		status = StatusCancelled
	default:
		status = StatusFailed
	}
	j.mu.Lock()
	j.finished = time.Now()
	j.result, j.err = res, err
	if j.jn != nil {
		j.journal(j.finishedRecord(status))
	}
	j.status = status
	j.notifyLocked()
	j.mu.Unlock()
}

// finishedRecord renders the job's terminal record: status, error, result,
// start and finish times and the event ring in the canonical encoding the
// SSE wire shares, Seq being the ring's first sequence number.
// An unencodable event ends the ring there, as an undecodable one does on
// restore. Callers hold j.mu or own j exclusively during recovery.
func (j *Job) finishedRecord(status Status) journal.Record {
	rec := journal.Record{
		Type:    journal.TypeFinished,
		Job:     j.ID,
		Time:    j.finished,
		Started: j.started,
		Status:  string(status),
		Seq:     j.firstSeq,
		Events:  make([]json.RawMessage, 0, len(j.events)),
	}
	if j.err != nil {
		rec.Error = j.err.Error()
	}
	if j.result != nil {
		if raw, err := json.Marshal(j.result); err == nil {
			rec.Result = raw
		}
	}
	for _, e := range j.events {
		raw, err := nasaic.EncodeEvent(e)
		if err != nil {
			break
		}
		rec.Events = append(rec.Events, raw)
	}
	return rec
}

// notifyLocked wakes every Events/Wait subscriber; callers hold j.mu.
func (j *Job) notifyLocked() {
	close(j.changed)
	j.changed = make(chan struct{})
}
