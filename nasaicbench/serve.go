package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"nasaic/internal/faultfs"
	"nasaic/internal/jobs"
	"nasaic/internal/maestro"
	"nasaic/internal/tenant"
	"nasaic/pkg/nasaic"
)

// serve-short-jobs runs nasaicd in process — the job manager with a durable
// journal, shared memos and two API-key tenants, behind the authenticated
// HTTP handler on a loopback listener — under a closed loop of one client
// per tenant. Each client submits a short W3 job, follows its SSE stream to
// the done frame, and submits the next.
const (
	// A 5-episode, φ=2 job without refine takes tens of milliseconds, so a
	// window holds hundreds of jobs: enough for a p95 with ten beyond it.
	serveEpisodes = 5
	serveHWSteps  = 2
	// serveStarts is the number of extra daemon starts per run for setup_s.
	// One start takes under a millisecond, so the median needs many.
	serveStarts = 99
)

// jobSeed is the seed of client i's j-th job. Every job has a seed of its
// own: no two jobs of a run share a spec, so the shared caches are warm only
// where the specs' architectures and designs overlap.
func jobSeed(seed int64, i, j int) int64 { return subSeed(subSeed(seed, i), j) }

var serveTenants = []struct{ name, key string }{
	{"alpha", "nasaicbench-alpha-key"},
	{"beta", "nasaicbench-beta-key"},
}

// service is one in-process daemon.
type service struct {
	m      *jobs.Manager
	srv    *http.Server
	base   string
	dir    string
	served chan error
}

// startService starts a daemon journaling into a fresh directory under tmp
// and returns once /healthz answers, with the time that took.
func startService(tmp string, fs faultfs.FS) (*service, time.Duration, error) {
	entries := make([]tenant.Tenant, len(serveTenants))
	keys := make([]string, len(serveTenants))
	for i, tn := range serveTenants {
		entries[i], keys[i] = tenant.Tenant{Name: tn.name}, tn.key
	}
	reg, err := tenant.New(entries, keys)
	if err != nil {
		return nil, 0, err
	}
	dir, err := os.MkdirTemp(tmp, "nasaicd-")
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	m := jobs.NewManager(jobs.Options{ShareMemos: true, DataDir: dir, FS: fs, Tenants: reg})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		m.Close()
		return nil, 0, errors.Join(err, os.RemoveAll(dir))
	}
	s := &service{
		m:      m,
		srv:    &http.Server{Handler: jobs.NewAuthHandler(m, reg), ReadHeaderTimeout: 10 * time.Second},
		base:   "http://" + ln.Addr().String(),
		dir:    dir,
		served: make(chan error, 1),
	}
	go func() { s.served <- s.srv.Serve(ln) }()
	if err := s.waitHealthy(); err != nil {
		return nil, 0, errors.Join(err, s.stop())
	}
	return s, time.Since(start), nil
}

func (s *service) waitHealthy() error {
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	c := &http.Client{Transport: tr, Timeout: 5 * time.Second}
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := c.Get(s.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			err = fmt.Errorf("status %d", resp.StatusCode)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("nasaicd not healthy: %w", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop shuts the server down, waits for it, closes the manager and removes
// the journal.
func (s *service) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	s.m.Close()
	return errors.Join(err, os.RemoveAll(s.dir))
}

// ioStats counts the journal's file operations.
type ioStats struct {
	writes, bytes, syncs, syncNs atomic.Int64
}

// timedFS is faultfs.OS with every journal write and fsync counted and every
// fsync timed; jobs.Options.FS routes the journal through it.
type timedFS struct {
	faultfs.FS
	st *ioStats
}

func (f timedFS) OpenAppend(path string) (faultfs.File, error) {
	file, err := f.FS.OpenAppend(path)
	if err != nil {
		return nil, err
	}
	return timedFile{file, f.st}, nil
}

type timedFile struct {
	faultfs.File
	st *ioStats
}

func (f timedFile) Write(b []byte) (int, error) {
	n, err := f.File.Write(b)
	f.st.writes.Add(1)
	f.st.bytes.Add(int64(n))
	return n, err
}

func (f timedFile) Sync() error {
	t := time.Now()
	err := f.File.Sync()
	f.st.syncNs.Add(int64(time.Since(t)))
	f.st.syncs.Add(1)
	return err
}

// jobSample is one job as its client saw it.
type jobSample struct {
	seed          int64
	submit        time.Duration // the POST alone
	first         time.Duration // POST start to the first episode frame
	total         time.Duration // POST start to the done frame
	frames, bytes int
	received      time.Time // wall clock at the done frame's receipt
	raw           []byte    // the done frame's data, decoded after the window
	done          doneFrame
	err           error
}

// doneFrame is the part of the done frame's job snapshot the checks read.
type doneFrame struct {
	Status     string     `json:"status"`
	Error      string     `json:"error"`
	Episodes   int        `json:"episodes"`
	CreatedAt  time.Time  `json:"created_at"`
	StartedAt  *time.Time `json:"started_at"`
	FinishedAt *time.Time `json:"finished_at"`
	Result     *struct {
		Best     json.RawMessage `json:"best"`
		Explored json.RawMessage `json:"explored"`
		Stats    nasaic.Stats    `json:"stats"`
	} `json:"result"`
}

// client is one tenant's closed loop. Its stream reader and line buffer are
// reused across jobs, so reading a stream allocates little beyond the copy
// of the done frame's data.
type client struct {
	base, key string
	http      *http.Client
	br        *bufio.Reader
	line      []byte
}

func (c *client) do(ctx context.Context, method, path, body string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, strings.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Authorization", "Bearer "+c.key)
	return c.http.Do(req)
}

// job submits one short W3 job and follows its event stream to the done
// frame.
func (c *client) job(ctx context.Context, seed int64) jobSample {
	smp := jobSample{seed: seed}
	start := time.Now()
	spec := fmt.Sprintf(`{"workload":"W3","episodes":%d,"hw_steps":%d,"seed":%d,"refine":false}`, serveEpisodes, serveHWSteps, seed)
	resp, err := c.do(ctx, http.MethodPost, "/v1/jobs", spec)
	if err != nil {
		smp.err = fmt.Errorf("submit: %w", err)
		return smp
	}
	var snap struct {
		ID string `json:"id"`
	}
	err = json.NewDecoder(resp.Body).Decode(&snap)
	resp.Body.Close()
	smp.submit = time.Since(start)
	switch {
	case resp.StatusCode != http.StatusAccepted:
		smp.err = fmt.Errorf("submit: status %d", resp.StatusCode)
		return smp
	case err != nil:
		smp.err = fmt.Errorf("submit: %w", err)
		return smp
	}
	resp, err = c.do(ctx, http.MethodGet, "/v1/jobs/"+snap.ID+"/events", "")
	if err != nil {
		smp.err = fmt.Errorf("events: %w", err)
		return smp
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		smp.err = fmt.Errorf("events: status %d", resp.StatusCode)
		return smp
	}
	c.br.Reset(resp.Body)
	smp.err = c.follow(start, &smp)
	return smp
}

// readLine reads one line into the client's line buffer.
func (c *client) readLine() ([]byte, error) {
	c.line = c.line[:0]
	for {
		frag, err := c.br.ReadSlice('\n')
		c.line = append(c.line, frag...)
		if err != bufio.ErrBufferFull {
			return c.line, err
		}
	}
}

var (
	sseEvent = []byte("event: ")
	sseID    = []byte("id: ")
	sseData  = []byte("data: ")
)

// follow reads SSE frames up to the done frame and requires the episode
// frames to be numbered 0, 1, 2, … without gaps; a reset frame (events lost
// from the ring) is a gap too. It keeps a copy of the done frame's data.
func (c *client) follow(start time.Time, smp *jobSample) error {
	event, id, next := "", -1, 0
	for {
		line, err := c.readLine()
		smp.bytes += len(line)
		if err != nil {
			return fmt.Errorf("stream ended before the done frame: %w", err)
		}
		line = bytes.TrimSuffix(line, []byte("\n"))
		switch {
		case len(line) == 0:
			if event == "" {
				continue // the end of a heartbeat comment
			}
			smp.frames++
			switch event {
			case "episode":
				if id != next {
					return fmt.Errorf("episode frame id %d, want %d", id, next)
				}
				if next == 0 {
					smp.first = time.Since(start)
				}
				next++
			case "done":
				smp.total = time.Since(start)
				smp.received = time.Now()
				if id != next {
					return fmt.Errorf("done frame id %d after %d episode frames", id, next)
				}
				if smp.raw == nil {
					return errors.New("done frame without data")
				}
				return nil
			default:
				return fmt.Errorf("unexpected %q frame (id %d)", event, id)
			}
			event, id = "", -1
		case bytes.HasPrefix(line, sseEvent):
			switch ev := line[len(sseEvent):]; {
			case bytes.Equal(ev, []byte("episode")):
				event = "episode"
			case bytes.Equal(ev, []byte("done")):
				event = "done"
			default:
				event = string(ev)
			}
		case bytes.HasPrefix(line, sseID):
			if id, err = strconv.Atoi(string(line[len(sseID):])); err != nil {
				return fmt.Errorf("bad frame id: %w", err)
			}
		case event == "done" && bytes.HasPrefix(line, sseData):
			smp.raw = bytes.Clone(line[len(sseData):])
		}
	}
}

// session is one closed-loop window against a freshly started daemon.
type session struct {
	setup      time.Duration
	samples    []jobSample
	wall       time.Duration // window start until the last client returned
	clientWall time.Duration // summed over clients
	idle       time.Duration // client time outside any job, summed
	alloc      uint64
	gcCycles   uint32
	gcPause    time.Duration
}

func runSession(ctx context.Context, env *runEnv, fs faultfs.FS, length time.Duration) (*session, error) {
	maestro.ResetSharedCostMemos() // every session starts cold
	svc, setup, err := startService(env.tmp, fs)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(ctx, length+time.Minute)
	defer cancel()
	s := &session{setup: setup}
	per := make([][]jobSample, len(serveTenants))
	walls := make([]time.Duration, len(serveTenants))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	until := start.Add(length)
	var wg sync.WaitGroup
	for i, tn := range serveTenants {
		wg.Add(1)
		go func(i int, key string) {
			defer wg.Done()
			tr := &http.Transport{}
			defer tr.CloseIdleConnections()
			c := &client{base: svc.base, key: key, http: &http.Client{Transport: tr}, br: bufio.NewReaderSize(nil, 1<<16)}
			t0 := time.Now()
			for j := 0; time.Now().Before(until); j++ {
				per[i] = append(per[i], c.job(ctx, jobSeed(env.seed, i, j)))
			}
			walls[i] = time.Since(t0)
		}(i, tn.key)
	}
	wg.Wait()
	s.wall = time.Since(start)
	runtime.ReadMemStats(&after)
	s.alloc = after.TotalAlloc - before.TotalAlloc
	s.gcCycles = after.NumGC - before.NumGC
	s.gcPause = time.Duration(after.PauseTotalNs - before.PauseTotalNs)
	for i := range per {
		busy := time.Duration(0)
		for _, smp := range per[i] {
			busy += smp.total
		}
		s.samples = append(s.samples, per[i]...)
		s.clientWall += walls[i]
		s.idle += walls[i] - busy
	}
	return s, svc.stop()
}

// reference is a direct pkg/nasaic.Run of one job spec.
type reference struct{ best, explored []byte }

// references are the direct runs the served jobs are compared with,
// computed outside the window on every core. They share one memo bundle,
// which changes work counters but never results, so checking a window's
// jobs takes a fraction of the window.
type references struct {
	memos *nasaic.SharedMemos
	runs  map[int64]reference
}

func newReferences() *references {
	return &references{memos: nasaic.NewSharedMemos(), runs: map[int64]reference{}}
}

// compute runs every seed not yet run.
func (rs *references) compute(ctx context.Context, samples []jobSample) error {
	var seeds []int64
	for _, smp := range samples {
		if _, ok := rs.runs[smp.seed]; !ok {
			rs.runs[smp.seed] = reference{}
			seeds = append(seeds, smp.seed)
		}
	}
	refs := make([]reference, len(seeds))
	errs := make([]error, len(seeds))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(seeds); i = int(next.Add(1) - 1) {
				refs[i], errs[i] = rs.run(ctx, seeds[i])
			}
		}()
	}
	wg.Wait()
	for i, seed := range seeds {
		rs.runs[seed] = refs[i]
	}
	return errors.Join(errs...)
}

func (rs *references) run(ctx context.Context, seed int64) (reference, error) {
	res, err := nasaic.Run(ctx, nasaic.WithWorkload("W3"), nasaic.WithEpisodes(serveEpisodes),
		nasaic.WithHWSteps(serveHWSteps), nasaic.WithSeed(seed), nasaic.WithRefine(false),
		nasaic.WithSharedMemos(rs.memos))
	if err != nil {
		return reference{}, fmt.Errorf("reference run of seed %d: %w", seed, err)
	}
	var r reference
	if res.Best != nil {
		if r.best, err = json.Marshal(res.Best); err != nil {
			return reference{}, err
		}
	}
	if len(res.Explored) > 0 {
		if r.explored, err = json.Marshal(res.Explored); err != nil {
			return reference{}, err
		}
	}
	return r, nil
}

// check counts every job of the session as one operation and fails those
// that did not succeed, streamed with a gap, or whose result differs from a
// direct run of the same spec. It returns the number of jobs that passed.
func (s *session) check(ctx context.Context, o *outcome, refs *references) (int, error) {
	t := time.Now()
	if err := refs.compute(ctx, s.samples); err != nil {
		return 0, err
	}
	fmt.Printf("%d reference runs in %.3f s\n", len(s.samples), time.Since(t).Seconds())
	ok := 0
	for i := range s.samples {
		smp := &s.samples[i]
		if smp.err == nil {
			if err := json.Unmarshal(smp.raw, &smp.done); err != nil {
				smp.err = fmt.Errorf("done frame: %w", err)
			}
		}
		o.attempted++
		if err := checkJob(smp, refs.runs[smp.seed]); err != nil {
			smp.err = err
			o.fail("job seed %d: %v", smp.seed, err)
			continue
		}
		ok++
	}
	return ok, nil
}

func checkJob(smp *jobSample, ref reference) error {
	d := smp.done
	switch {
	case smp.err != nil:
		return smp.err
	case d.Status != string(jobs.StatusSucceeded):
		return fmt.Errorf("status %s %s", d.Status, d.Error)
	case d.Episodes != serveEpisodes:
		return fmt.Errorf("%d episodes, want %d", d.Episodes, serveEpisodes)
	case d.Result == nil || d.StartedAt == nil || d.FinishedAt == nil:
		return errors.New("done frame lacks result or timestamps")
	case !bytes.Equal(d.Result.Best, ref.best) || !bytes.Equal(d.Result.Explored, ref.explored):
		return errors.New("served result differs from a direct nasaic.Run of the same spec")
	}
	return nil
}

func benchServe(env *runEnv) (*outcome, error) {
	o := newOutcome()
	if env.trace {
		return o, benchServeTraced(env, o)
	}
	var setups []float64
	t := time.Now()
	for i := 0; i < serveStarts; i++ {
		svc, d, err := startService(env.tmp, nil)
		if err != nil {
			return nil, err
		}
		if err := svc.stop(); err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
	}
	fmt.Printf("%d daemon starts and stops in %.3f s\n", serveStarts, time.Since(t).Seconds())
	stopProfile, err := env.profile()
	if err != nil {
		return nil, err
	}
	s, err := runSession(env.ctx, env, nil, env.window)
	if perr := stopProfile(); err == nil {
		err = perr
	}
	if err != nil {
		return nil, err
	}
	ok, err := s.check(env.ctx, o, newReferences())
	if err != nil {
		return nil, err
	}
	setups = append(setups, s.setup.Seconds())
	var total []float64
	for _, smp := range s.samples {
		if smp.err == nil {
			total = append(total, smp.total.Seconds())
		}
	}
	fmt.Printf("%d jobs in %.3f s, %d passed\n", len(s.samples), s.wall.Seconds(), ok)
	o.metrics["setup_s"] = median(setups)
	o.metrics["explore_s"] = median(total)
	o.metrics["jobs_per_s"] = float64(ok) / s.wall.Seconds()
	o.metrics["alloc_mb"] = ratio(float64(s.alloc)/1e6, float64(len(s.samples)))
	return o, nil
}

// benchServeTraced splits the window between an untraced session and one
// whose journal runs through timedFS, and reports the traced one.
func benchServeTraced(env *runEnv, o *outcome) error {
	u, err := runSession(env.ctx, env, nil, env.window/2)
	if err != nil {
		return err
	}
	st := &ioStats{}
	t, err := runSession(env.ctx, env, timedFS{faultfs.OS, st}, env.window/2)
	if err != nil {
		return err
	}
	refs := newReferences()
	if _, err := u.check(env.ctx, o, refs); err != nil {
		return err
	}
	if _, err := t.check(env.ctx, o, refs); err != nil {
		return err
	}
	var untraced, total, first, submit, ttr, exec, lag []float64
	for _, smp := range u.samples {
		if smp.err == nil {
			untraced = append(untraced, ms(smp.total))
		}
	}
	frames, sseBytes := 0, 0
	var work nasaic.Stats
	for _, smp := range t.samples {
		if smp.err != nil {
			continue
		}
		d := smp.done
		total = append(total, ms(smp.total))
		first = append(first, ms(smp.first))
		submit = append(submit, ms(smp.submit))
		ttr = append(ttr, ms(d.StartedAt.Sub(d.CreatedAt)))
		exec = append(exec, ms(d.FinishedAt.Sub(*d.StartedAt)))
		lag = append(lag, ms(smp.received.Sub(*d.FinishedAt)))
		frames += smp.frames
		sseBytes += smp.bytes
		js := d.Result.Stats
		work.HWRequests += js.HWRequests
		work.HWCacheHits += js.HWCacheHits
		work.LayerCostRequests += js.LayerCostRequests
		work.LayerCostHits += js.LayerCostHits
		work.Trainings += js.Trainings
	}
	n, passed := float64(len(t.samples)), float64(len(total))
	fmt.Printf("%d untraced and %d traced jobs\n", len(u.samples), len(t.samples))
	for k, v := range map[string]float64{
		"jobs.ttr_ms":                 median(ttr),
		"jobs.exec_ms":                median(exec),
		"jobs.sse_done_lag_ms":        median(lag),
		"jobs.sse_frames":             ratio(float64(frames), passed),
		"jobs.sse_bytes":              ratio(float64(sseBytes), passed),
		"jobs.job_p95_ms":             quantile(total, 0.95),
		"nasaic.first_event_ms":       median(first),
		"jobs.submit_p50_ms":          median(submit),
		"jobs.submit_p95_ms":          quantile(submit, 0.95),
		"jobs.samples":                passed,
		"jobs.hw_cache_hit_pct":       pct(float64(work.HWCacheHits), float64(work.HWRequests)),
		"jobs.layer_hit_pct":          pct(float64(work.LayerCostHits), float64(work.LayerCostRequests)),
		"jobs.trainings":              ratio(float64(work.Trainings), passed),
		"journal.fsyncs_per_job":      ratio(float64(st.syncs.Load()), n),
		"journal.fsync_us":            ratio(float64(st.syncNs.Load())/1e3, float64(st.syncs.Load())),
		"journal.writes":              ratio(float64(st.writes.Load()), n),
		"journal.write_bytes_per_job": ratio(float64(st.bytes.Load()), n),
		"runtime.gc_cycles":           float64(t.gcCycles),
		"runtime.gc_pause_ms":         ms(t.gcPause),
		"trace.overhead_pct":          pct(median(total)-median(untraced), median(untraced)),
		"trace.unaccounted_pct":       pct(float64(t.idle), float64(t.clientWall)),
	} {
		o.metrics[k] = v
	}
	return nil
}
