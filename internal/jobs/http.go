package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"nasaic/internal/tenant"
	"nasaic/pkg/nasaic"
)

// NewHandler exposes the manager as cmd/nasaicd's HTTP/JSON API:
//
//	POST   /v1/jobs            submit a Spec, returns 202 + the job snapshot
//	GET    /v1/jobs            list retained jobs
//	GET    /v1/jobs/{id}       one job's snapshot (result once terminal)
//	GET    /v1/jobs/{id}/events  SSE stream of per-episode events
//	DELETE /v1/jobs/{id}       cancel, returns the snapshot at call time
//	GET    /healthz            liveness probe
//
// The events stream replays the job's buffered events (from Last-Event-ID,
// when the client reconnects) and then follows live ones; it ends with a
// terminal `done` event carrying the final snapshot. When the requested
// resume point has already been evicted from the job's bounded event ring, a
// `reset` frame announcing the first retained sequence number precedes the
// replay, so slow clients see the gap instead of a silent snap-forward. The
// done frame's id is the job's total episode count — stable across
// reconnects, unlike a live sequence number.
//
// Streams are defended in both directions: an idle stream (a pending job, a
// quiet phase) carries SSE comment heartbeats so proxies and clients can
// tell a live connection from a dead one, and every write runs under a
// deadline so a stalled reader (full TCP buffers, a wedged client) tears the
// stream down instead of pinning the handler goroutine forever.
// Every route except /healthz runs behind the tenant auth middleware; with a
// nil registry (NewHandler, or -tenants unset) authentication is off and
// every request acts as the anonymous admin tenant.
func NewHandler(m *Manager) http.Handler {
	return NewAuthHandler(m, nil)
}

// NewAuthHandler is NewHandler with API-key authentication: every /v1 request
// must carry `Authorization: Bearer <key>` matching a tenant in the registry.
// A missing or malformed credential is 401 (with a WWW-Authenticate
// challenge); a well-formed key that matches no tenant is 403. Authenticated
// requests are scoped to the tenant: it sees, streams and cancels only its
// own jobs (admin tenants see all), and its submissions count against its
// quotas. Key comparison is constant-time over the whole registry.
func NewAuthHandler(m *Manager, reg *tenant.Registry) http.Handler {
	return newServer(m, reg, handlerConfig{}).handler()
}

// handlerConfig tunes the SSE defenses; zero values select production
// defaults (tests shrink them to force timeouts quickly).
type handlerConfig struct {
	// heartbeat is the idle interval between SSE comment frames. <=0
	// selects 15s.
	heartbeat time.Duration
	// writeTimeout is the per-write deadline on the stream; a reader that
	// cannot drain a write within it is disconnected. <=0 selects 30s.
	writeTimeout time.Duration
	// hbPad pads heartbeat comments to this many bytes (test-only: filling
	// kernel socket buffers with tiny comments would take far too long).
	hbPad int
}

func (c handlerConfig) heartbeatInterval() time.Duration {
	if c.heartbeat > 0 {
		return c.heartbeat
	}
	return 15 * time.Second
}

func (c handlerConfig) writeDeadline() time.Duration {
	if c.writeTimeout > 0 {
		return c.writeTimeout
	}
	return 30 * time.Second
}

func newServer(m *Manager, reg *tenant.Registry, cfg handlerConfig) *server {
	return &server{m: m, reg: reg, cfg: cfg}
}

func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.auth(s.submit))
	mux.HandleFunc("GET /v1/jobs", s.auth(s.list))
	mux.HandleFunc("GET /v1/jobs/{id}", s.auth(s.get))
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.auth(s.events))
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.auth(s.cancel))
	// The liveness probe stays unauthenticated: orchestrators must be able
	// to health-check the daemon without holding a tenant key.
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	return mux
}

type server struct {
	m   *Manager
	reg *tenant.Registry // nil: auth off, everyone is the anonymous admin
	cfg handlerConfig
	// streams counts the live SSE handlers — the observable that proves a
	// stalled reader was actually torn down rather than leaked.
	streams atomic.Int64
}

// tenantKey carries the authenticated tenant through the request context.
type tenantKey struct{}

// auth authenticates the request's bearer key against the registry and
// stashes the resolved tenant in the context. Missing or malformed
// credentials are 401 with a WWW-Authenticate challenge; a syntactically
// fine key that matches no tenant is 403. With a nil registry every request
// resolves to the anonymous tenant and nothing is rejected.
func (s *server) auth(next http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		tn, err := s.reg.Authenticate(tenant.BearerKey(r.Header.Get("Authorization")))
		if err != nil {
			if errors.Is(err, tenant.ErrNoKey) {
				w.Header().Set("WWW-Authenticate", `Bearer realm="nasaicd"`)
				writeErr(w, http.StatusUnauthorized, err)
				return
			}
			writeErr(w, http.StatusForbidden, err)
			return
		}
		next(w, r.WithContext(context.WithValue(r.Context(), tenantKey{}, tn)))
	}
}

// caller returns the request's authenticated tenant (nil only when a route
// bypassed the auth middleware, which no /v1 route does).
func caller(r *http.Request) *tenant.Tenant {
	tn, _ := r.Context().Value(tenantKey{}).(*tenant.Tenant)
	return tn
}

// apiError is the JSON error envelope.
type apiError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func writeErr(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, apiError{Error: err.Error()})
}

func (s *server) submit(w http.ResponseWriter, r *http.Request) {
	var spec Spec
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("invalid job spec: %w", err))
		return
	}
	// The body must be exactly one JSON spec: trailing data (a second
	// document, stray tokens) is a malformed request, not something to
	// silently ignore.
	var extra json.RawMessage
	if err := dec.Decode(&extra); err != io.EOF {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("invalid job spec: trailing data after JSON body"))
		return
	}
	j, err := s.m.SubmitAs(caller(r), spec)
	if err != nil {
		code := http.StatusBadRequest
		switch {
		case errors.Is(err, ErrClosed):
			code = http.StatusServiceUnavailable
		case errors.Is(err, ErrTooManyPending):
			code = http.StatusTooManyRequests
			var qe *QuotaError
			if errors.As(err, &qe) && qe.RetryAfter > 0 {
				secs := int(qe.RetryAfter.Round(time.Second) / time.Second)
				if secs < 1 {
					secs = 1
				}
				w.Header().Set("Retry-After", strconv.Itoa(secs))
			}
		}
		writeErr(w, code, err)
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+j.ID)
	writeJSON(w, http.StatusAccepted, j.Snapshot())
}

func (s *server) list(w http.ResponseWriter, r *http.Request) {
	jobs := s.m.ListFor(caller(r))
	out := make([]Snapshot, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, j.Snapshot())
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *server) job(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	j, err := s.m.GetFor(caller(r), r.PathValue("id"))
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return nil, false
	}
	return j, true
}

func (s *server) get(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.job(w, r); ok {
		writeJSON(w, http.StatusOK, j.Snapshot())
	}
}

func (s *server) cancel(w http.ResponseWriter, r *http.Request) {
	j, err := s.m.CancelFor(caller(r), r.PathValue("id"))
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusAccepted, j.Snapshot())
}

// events streams the job's episode events as Server-Sent Events.
func (s *server) events(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeErr(w, http.StatusInternalServerError, fmt.Errorf("streaming unsupported"))
		return
	}
	s.streams.Add(1)
	defer s.streams.Add(-1)
	// Every write on the stream runs under its own deadline: a reader that
	// stops draining (wedged client, full socket buffers) fails the write
	// instead of blocking this goroutine for the job's lifetime. Deadline
	// support depends on the server; SetWriteDeadline errors are ignored and
	// leave the seed behavior (no deadline).
	rc := http.NewResponseController(w)
	armWrite := func() { _ = rc.SetWriteDeadline(time.Now().Add(s.cfg.writeDeadline())) }
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	armWrite()
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	from := 0
	if last := r.Header.Get("Last-Event-ID"); last != "" {
		// A bogus negative id must not push the resume point below 0: the
		// gap arithmetic would count phantom events in the reset frame.
		if n, err := strconv.Atoi(last); err == nil && n >= 0 {
			from = n + 1
		}
	}

	ctx := r.Context()
	// emit writes one batch of replayed/live events, prefixing a `reset`
	// frame whenever the ring start moved past the resume point (seq > from):
	// the events [from, seq) were evicted, and a client must learn it lost
	// them rather than silently snap forward. The reset frame's id is seq-1,
	// so a client that reconnects with it resumes exactly at the announced
	// first retained event.
	emit := func(evs []nasaic.Event, seq int) bool {
		armWrite()
		if seq > from {
			if err := writeSSE(w, "reset", seq-1, resetFrame{FirstSeq: seq, Missed: seq - from}); err != nil {
				return false
			}
		}
		for i, ev := range evs {
			if err := writeSSE(w, "episode", seq+i, ev); err != nil {
				return false
			}
		}
		if seq+len(evs) > from {
			flusher.Flush()
			from = seq + len(evs)
		}
		return true
	}
	// Idle heartbeats: SSE comment frames that cross the wire but never
	// reach the client's event handlers. They keep intermediaries from
	// reaping a quiet stream as dead, and — combined with the write deadline
	// — actively probe for readers that went away without closing.
	heartbeat := time.NewTicker(s.cfg.heartbeatInterval())
	defer heartbeat.Stop()
	pad := ""
	if s.cfg.hbPad > 0 {
		pad = strings.Repeat("x", s.cfg.hbPad)
	}
	for {
		evs, seq, changed := j.Events(from)
		if !emit(evs, seq) {
			return
		}
		if j.Done() {
			// Re-read in case events landed between the batch and the
			// status check, then finish with the terminal snapshot. The
			// done id is the total episode count, which no longer changes —
			// a reconnect that stored it replays nothing and receives the
			// same done frame under the same id.
			snap := j.Snapshot()
			if evs, seq, _ := j.Events(from); len(evs) > 0 {
				if !emit(evs, seq) {
					return
				}
				snap = j.Snapshot()
			}
			armWrite()
			_ = writeSSE(w, "done", snap.Episodes, snap)
			flusher.Flush()
			return
		}
		select {
		case <-changed:
		case <-heartbeat.C:
			armWrite()
			if _, err := fmt.Fprintf(w, ": hb%s\n\n", pad); err != nil {
				return
			}
			flusher.Flush()
		case <-ctx.Done():
			return
		}
	}
}

// resetFrame is the payload of a `reset` SSE frame: the stream could not
// resume where the client asked because the job's bounded event ring already
// evicted that range. FirstSeq is the sequence number of the next event on
// the stream; Missed counts the evicted events the client will never see.
type resetFrame struct {
	FirstSeq int `json:"first_seq"`
	Missed   int `json:"missed"`
}

// writeSSE emits one SSE frame with a JSON payload.
func writeSSE(w http.ResponseWriter, event string, id int, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "event: %s\nid: %d\ndata: %s\n\n", event, id, data)
	return err
}
