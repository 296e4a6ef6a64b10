package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"time"

	"nasaic/internal/jobs"
	"nasaic/pkg/nasaic"
)

// Config configures a Coordinator. Zero durations select production
// defaults; tests shrink them to force failovers quickly.
type Config struct {
	// Workers are the replica base URLs (http://host:port). At least one is
	// required.
	Workers []string
	// Key is the cluster shared key every worker request carries as a bearer
	// credential — distinct from tenant API keys, which never leave the
	// coordinator. Empty disables cluster auth (trusted-network deployments).
	Key string
	// ProbeInterval is the worker health-check period. <=0 selects 2s.
	ProbeInterval time.Duration
	// StreamTimeout bounds the silence on a worker SSE stream before it is
	// presumed dead. Workers heartbeat idle streams every 15s, so this must
	// comfortably exceed that. <=0 selects 60s.
	StreamTimeout time.Duration
	// RetryDelay is the base backoff between stream retries against the same
	// worker (doubled per attempt, bounded at 8×). <=0 selects 500ms.
	RetryDelay time.Duration
	// StreamRetries is how many consecutive stream failures against one
	// worker the coordinator tolerates before declaring it lost and
	// re-dispatching the job elsewhere. <=0 selects 4.
	StreamRetries int
	// HTTPClient overrides the worker-facing HTTP client (tests inject
	// httptest transports). Nil selects a fresh default client.
	HTTPClient *http.Client
	// Logf receives dispatch and failover diagnostics. Nil discards them.
	Logf func(format string, args ...any)
}

func (c Config) probeInterval() time.Duration {
	if c.ProbeInterval > 0 {
		return c.ProbeInterval
	}
	return 2 * time.Second
}

func (c Config) streamTimeout() time.Duration {
	if c.StreamTimeout > 0 {
		return c.StreamTimeout
	}
	return 60 * time.Second
}

func (c Config) retryDelay() time.Duration {
	if c.RetryDelay > 0 {
		return c.RetryDelay
	}
	return 500 * time.Millisecond
}

func (c Config) streamRetries() int {
	if c.StreamRetries > 0 {
		return c.StreamRetries
	}
	return 4
}

func (c Config) logf() func(string, ...any) {
	if c.Logf != nil {
		return c.Logf
	}
	return func(string, ...any) {}
}

// Coordinator dispatches granted jobs to worker replicas. It implements
// jobs.Executor (plugged into the manager via jobs.Options.Executor) and
// jobs.DrainEstimator (cluster-wide Retry-After hints). Construct with New,
// wire into a Manager, and Close after the manager drains.
type Coordinator struct {
	cfg  Config
	pool *pool
	logf func(string, ...any)
}

// New validates the config and starts the worker health monitors. The
// coordinator is usable immediately; placement blocks until the first
// successful probe marks a worker healthy, while journaled re-attachments
// proceed without waiting.
func New(cfg Config) (*Coordinator, error) {
	if len(cfg.Workers) == 0 {
		return nil, errors.New("cluster: at least one worker URL is required")
	}
	httpClient := cfg.HTTPClient
	if httpClient == nil {
		httpClient = &http.Client{}
	}
	seen := make(map[string]bool)
	workers := make([]*worker, 0, len(cfg.Workers))
	for _, raw := range cfg.Workers {
		name := strings.TrimRight(strings.TrimSpace(raw), "/")
		if name == "" {
			return nil, fmt.Errorf("cluster: empty worker URL in %q", cfg.Workers)
		}
		if !strings.Contains(name, "://") {
			name = "http://" + name
		}
		if seen[name] {
			return nil, fmt.Errorf("cluster: duplicate worker %s", name)
		}
		seen[name] = true
		workers = append(workers, &worker{
			name: name,
			client: &client{
				base:          name,
				key:           cfg.Key,
				http:          httpClient,
				streamTimeout: cfg.streamTimeout(),
			},
		})
	}
	logf := cfg.logf()
	return &Coordinator{
		cfg:  cfg,
		pool: newPool(workers, cfg.probeInterval(), logf),
		logf: logf,
	}, nil
}

// Close stops the health monitors. Call it after the job manager has
// drained (manager first, coordinator second): in-flight Execute calls are
// cancelled through their job contexts, not by Close.
func (c *Coordinator) Close() {
	c.pool.close()
}

// Status reports every worker's health and load in config order (the
// coordinator /healthz payload).
func (c *Coordinator) Status() []WorkerStatus {
	return c.pool.status()
}

// DrainEstimate implements jobs.DrainEstimator: cluster-wide queue depth and
// slot count for Retry-After hints on quota rejections.
func (c *Coordinator) DrainEstimate() (queued, slots int, ok bool) {
	return c.pool.drainEstimate()
}

// Execute implements jobs.Executor: it runs the granted job on a worker
// replica and proxies its event stream into the job's local ring. The loop
// survives every worker-side failure — transient stream drops retry against
// the same worker with bounded backoff, and a lost worker (retries
// exhausted, or a 404 proving the remote job is gone) clears the journaled
// binding and re-dispatches to another replica, where the deterministic
// re-run converges to the identical result. Only ctx cancellation (client
// DELETE or manager shutdown) or a terminal remote outcome ends the loop.
func (c *Coordinator) Execute(ctx context.Context, j *jobs.Job) (*nasaic.Result, error) {
	for {
		w, remoteID, err := c.place(ctx, j)
		if err != nil {
			return nil, err
		}
		out := c.followWithRetry(ctx, j, w, remoteID)
		switch {
		case out.done:
			c.pool.release(w)
			return out.res, out.err
		case ctx.Err() != nil:
			res := c.abandon(j, w, remoteID)
			c.pool.release(w)
			return res, ctx.Err()
		default:
			c.logf("cluster: job %s: worker %s lost (%v); re-dispatching", j.ID, w.name, out.err)
			c.pool.fail(w)
			c.pool.release(w)
			// If the worker is in fact alive (the stream failed for some other
			// reason), the orphaned remote job would keep holding one of its
			// slots; cancel it in the background before the binding is
			// forgotten. A genuinely dead worker just makes this a no-op.
			go func(cl *client, remoteID string) {
				cctx, cancel := context.WithTimeout(context.Background(), 5*time.Second) //lint:allow ctxplumb deliberately detached: orphan cleanup must outlive the failed dispatch
				defer cancel()
				_ = cl.cancel(cctx, remoteID)
			}(w.client, remoteID)
			j.SetAssignment("", "")
		}
	}
}

// place resolves the job to a (worker, remote job ID) pair: an existing
// journaled binding re-attaches directly (even before the first health probe
// — the follow loop handles a dead worker), otherwise the least-loaded
// healthy worker gets the spec and the new binding journals before any event
// flows. Worker-side quota rejections (429) pause briefly and re-place
// rather than marking the replica unhealthy; any other 4xx means the worker
// rejected the spec itself, which fails the job rather than looping forever.
func (c *Coordinator) place(ctx context.Context, j *jobs.Job) (*worker, string, error) {
	if name, remoteID := j.Assignment(); name != "" && remoteID != "" {
		if w := c.pool.bind(name); w != nil {
			c.logf("cluster: job %s: re-attaching to %s (remote %s)", j.ID, name, remoteID)
			return w, remoteID, nil
		}
		c.logf("cluster: job %s: bound worker %s no longer configured; re-dispatching", j.ID, name)
		j.SetAssignment("", "")
	}
	for {
		w, err := c.pool.pick(ctx)
		if err != nil {
			return nil, "", err
		}
		snap, err := w.client.submit(ctx, j.Spec)
		if err == nil {
			j.SetAssignment(w.name, snap.ID)
			c.logf("cluster: job %s: dispatched to %s (remote %s)", j.ID, w.name, snap.ID)
			return w, snap.ID, nil
		}
		c.pool.release(w)
		if ctx.Err() != nil {
			return nil, "", ctx.Err()
		}
		var re *remoteError
		if errors.As(err, &re) {
			switch {
			case re.status == http.StatusTooManyRequests:
				// Saturated, not dead: give its queue a moment, place again.
				if serr := sleepCtx(ctx, c.cfg.retryDelay()); serr != nil {
					return nil, "", serr
				}
				continue
			case re.status >= 400 && re.status < 500:
				return nil, "", fmt.Errorf("cluster: worker %s rejected job %s: %w", w.name, j.ID, err)
			}
		}
		c.logf("cluster: job %s: submit to %s failed: %v", j.ID, w.name, err)
		c.pool.fail(w)
	}
}

// outcome is a follow attempt's verdict: done carries the remote terminal
// result (err mapping exactly as a local run's — nil, context.Canceled, or
// the failure), !done means the worker is lost and err says why.
type outcome struct {
	done bool
	res  *nasaic.Result
	err  error
}

// followWithRetry streams the remote job, retrying transient stream drops
// against the same worker with doubling, bounded backoff. It gives up — so
// Execute re-dispatches — after StreamRetries consecutive failures, or
// immediately on errRemoteGone (the remote job provably no longer exists).
func (c *Coordinator) followWithRetry(ctx context.Context, j *jobs.Job, w *worker, remoteID string) outcome {
	delay := c.cfg.retryDelay()
	for attempt := 1; ; attempt++ {
		out, err := c.follow(ctx, j, w, remoteID)
		if out != nil {
			return *out
		}
		if ctx.Err() != nil {
			return outcome{err: ctx.Err()}
		}
		if errors.Is(err, errRemoteGone) || attempt >= c.cfg.streamRetries() {
			return outcome{err: err}
		}
		c.logf("cluster: job %s: stream from %s failed (%v); retry %d in %v",
			j.ID, w.name, err, attempt, delay)
		if sleepCtx(ctx, delay) != nil {
			return outcome{err: ctx.Err()}
		}
		if delay *= 2; delay > 8*c.cfg.retryDelay() {
			delay = 8 * c.cfg.retryDelay()
		}
	}
}

// follow runs one SSE pass over the remote job, resuming at the local
// ring's next sequence number — seq 0 after a coordinator restart, whose
// recovered ring is empty (duplicates a re-attached worker replays are
// dropped by EmitEvent; a worker-side reset maps to SkipTo so subscribers
// see the same gap). A done frame ends the pass with the remote terminal
// outcome translated to the Executor contract.
func (c *Coordinator) follow(ctx context.Context, j *jobs.Job, w *worker, remoteID string) (*outcome, error) {
	var out *outcome
	err := w.client.stream(ctx, remoteID, j.NextSeq()-1, func(f sseFrame) error {
		switch f.event {
		case "episode":
			ev, err := nasaic.DecodeEvent(f.data)
			if err != nil {
				return fmt.Errorf("cluster: undecodable episode frame from %s: %w", w.name, err)
			}
			j.EmitEvent(f.id, ev)
		case "reset":
			var rf struct {
				FirstSeq int `json:"first_seq"`
			}
			if err := json.Unmarshal(f.data, &rf); err != nil {
				return fmt.Errorf("cluster: undecodable reset frame from %s: %w", w.name, err)
			}
			j.SkipTo(rf.FirstSeq)
		case "done":
			var snap jobs.Snapshot
			if err := json.Unmarshal(f.data, &snap); err != nil {
				return fmt.Errorf("cluster: undecodable done frame from %s: %w", w.name, err)
			}
			out = &outcome{done: true, res: snap.Result}
			switch snap.Status {
			case jobs.StatusSucceeded:
			case jobs.StatusCancelled:
				out.err = context.Canceled
			default:
				if snap.Error != "" {
					out.err = errors.New(snap.Error)
				} else {
					out.err = fmt.Errorf("cluster: remote job %s on %s failed", remoteID, w.name)
				}
			}
			return errStreamDone
		}
		return nil
	})
	if out != nil {
		return out, nil
	}
	return nil, err
}

// abandon cleans up after ctx cancellation: cancel the remote job (under a
// fresh bounded context — the job's own is already done) and briefly poll
// for its terminal snapshot so the client's cancelled job still carries the
// best-so-far partial result, as in standalone mode. Best effort: a nil
// result just means the worker could not be reached in time.
func (c *Coordinator) abandon(j *jobs.Job, w *worker, remoteID string) *nasaic.Result {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second) //lint:allow ctxplumb deliberately detached: abandon runs while the job ctx is already dead
	defer cancel()
	if err := w.client.cancel(ctx, remoteID); err != nil {
		c.logf("cluster: job %s: cancel on %s failed: %v", j.ID, w.name, err)
		return nil
	}
	for {
		snap, err := w.client.get(ctx, remoteID)
		if err != nil {
			c.logf("cluster: job %s: no terminal snapshot from %s after cancel: %v", j.ID, w.name, err)
			return nil
		}
		if snap.Status.Terminal() {
			return snap.Result
		}
		if sleepCtx(ctx, 50*time.Millisecond) != nil {
			return nil
		}
	}
}

// sleepCtx sleeps d or until ctx is done, returning ctx's error in the
// latter case.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
