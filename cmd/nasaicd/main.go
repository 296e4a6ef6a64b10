// Command nasaicd serves NASAIC co-explorations over HTTP: clients submit
// jobs, stream per-episode progress as Server-Sent Events, and cancel
// mid-run. All jobs share one process and one memo bundle, so repeat
// explorations warm-start each other.
//
// Usage:
//
//	nasaicd [-addr :8080] [-max-jobs 2] [-max-pending 0] [-history 64]
//	        [-cachedir DIR] [-cacheflush 5m] [-datadir DIR]
//	        [-tenants FILE] [-role standalone|coordinator|worker]
//	        [-workers URL,URL,...] [-cluster-key KEY]
//
// With -cachedir the shared evaluation cache and memos persist across
// restarts: the warm tier is loaded at startup, flushed every -cacheflush
// interval, and flushed once more at shutdown. -max-pending bounds the jobs
// queued for a concurrency slot; excess submissions get HTTP 429.
//
// With -tenants the daemon is multi-tenant: FILE is a JSON API-key registry
// ({"tenants":[{"name":"acme","key":"...","max_pending":16,
// "max_concurrent":2,"max_event_ring":1024,"admin":false}, ...]}) and every
// /v1 request must carry `Authorization: Bearer <key>` (missing or malformed
// credentials get 401, unknown keys 403; /healthz stays open). Each tenant
// sees and cancels only its own jobs (admin tenants see all), its
// submissions count against its own max_pending/max_concurrent quotas (429
// with a Retry-After hint when exhausted), and the scheduler round-robins
// slots across tenants so one tenant's burst cannot starve another. Job
// ownership is journaled, so with -datadir it survives restarts. Without
// -tenants every client is the single anonymous tenant (the pre-tenancy
// behavior).
//
// With -datadir the daemon is crash-safe: every submission, worker binding,
// cancel request and terminal outcome is fsynced to an append-only journal
// under DIR/journal before it becomes observable over HTTP, the terminal
// record carrying the job's event ring (episode events are never journaled
// one by one). A restarted daemon pointed at the same -datadir restores
// finished jobs — results and event rings, so SSE Last-Event-ID replay
// works across the restart — and re-executes the jobs that were pending or
// running when the process died from seq 0; seeded determinism makes the
// re-run bit-identical, re-emitting the same events under the same
// sequence numbers. A job cancelled before the crash settles as cancelled
// rather than re-running. Journal damage (torn tails from the crash itself,
// bit flips, version skew) is truncated away at startup; it degrades
// durability, never prevents the daemon from starting.
//
// With -role the daemon joins a cluster (default standalone keeps every
// behavior above, bit-identical results everywhere):
//
//   - `-role coordinator -workers http://w1:8080,http://w2:8080` serves the
//     public API unchanged but executes nothing locally: granted jobs are
//     dispatched to the least-loaded healthy worker and their SSE streams
//     proxied back, sequence numbers and all. Tenant auth, quotas and fair
//     scheduling stay at the coordinator; with -datadir every job→worker
//     binding is journaled, so a restarted coordinator re-attaches to
//     in-flight remote runs. When a worker dies mid-job, the coordinator
//     re-dispatches the job to another replica — deterministic re-execution
//     converges to the identical result, and clients just see their SSE
//     stream resume. GET /healthz reports per-worker status as JSON.
//   - `-role worker` is a standalone daemon whose /v1 surface is gated by
//     the -cluster-key shared key (distinct from tenant keys, which never
//     reach workers) and which additionally serves /v1/cluster/health load
//     probes. /healthz stays open and bare.
//
// -cluster-key sets the shared key on both sides; empty disables the gate
// (trusted networks only). In coordinator mode an unset -max-jobs defaults
// to 4× the worker count instead of 2, since slots only bound dispatch
// fan-out, not local CPU.
//
// The daemon's core invariants — deterministic results, journal-before-
// publish without fsyncing under Manager.mu, end-to-end context plumbing,
// no IO under hot locks — are machine-checked by the cmd/nasaiclint
// analyzers, which CI runs via `go vet -vettool` before any test.
//
// API:
//
//	POST   /v1/jobs             {"workload":"W3","episodes":150,"seed":1}
//	GET    /v1/jobs             list jobs
//	GET    /v1/jobs/{id}        job status + result once finished
//	GET    /v1/jobs/{id}/events SSE stream of episode events
//	DELETE /v1/jobs/{id}        cancel
//	GET    /healthz             liveness
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"nasaic/internal/cluster"
	"nasaic/internal/jobs"
	"nasaic/internal/tenant"
)

func main() {
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		maxJobs    = flag.Int("max-jobs", 2, "jobs exploring concurrently; further submissions queue (coordinator default: 4x worker count)")
		maxPending = flag.Int("max-pending", 0, "jobs queued for a slot before submissions are rejected with 429; 0 = unbounded")
		history    = flag.Int("history", 64, "finished jobs retained for inspection")
		cachedir   = flag.String("cachedir", "", "directory for the persistent cache warm tier, loaded at startup and flushed periodically and at shutdown (results are identical either way)")
		cacheflush = flag.Duration("cacheflush", 5*time.Minute, "interval between periodic warm-tier flushes (with -cachedir)")
		datadir    = flag.String("datadir", "", "directory for the durable job journal; jobs survive restarts (finished ones are restored, interrupted ones re-executed)")
		tenantsCfg = flag.String("tenants", "", "JSON API-key registry; turns on Bearer auth, per-tenant quotas and fair scheduling across tenants")
		role       = flag.String("role", "standalone", "cluster role: standalone, coordinator (dispatches jobs to -workers) or worker (serves a coordinator)")
		workersCSV = flag.String("workers", "", "comma-separated worker base URLs (coordinator role)")
		clusterKey = flag.String("cluster-key", "", "shared key authenticating coordinator→worker traffic; empty disables the gate")
	)
	flag.Parse()

	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "nasaicd: "+format+"\n", args...)
	}
	var reg *tenant.Registry
	if *tenantsCfg != "" {
		var err error
		if reg, err = tenant.Load(*tenantsCfg); err != nil {
			// A bad key file must not silently open the daemon to everyone.
			fmt.Fprintf(os.Stderr, "nasaicd: -tenants: %v\n", err)
			os.Exit(1)
		}
	}

	// Cluster wiring happens before the manager exists: the coordinator is
	// the manager's Executor, so recovery's re-dispatch of journaled jobs
	// already goes through it.
	var coord *cluster.Coordinator
	switch *role {
	case "standalone", "worker":
		if *workersCSV != "" {
			fmt.Fprintf(os.Stderr, "nasaicd: -workers only applies to -role coordinator\n")
			os.Exit(2)
		}
	case "coordinator":
		var urls []string
		for _, u := range strings.Split(*workersCSV, ",") {
			if u = strings.TrimSpace(u); u != "" {
				urls = append(urls, u)
			}
		}
		var err error
		if coord, err = cluster.New(cluster.Config{
			Workers: urls,
			Key:     *clusterKey,
			Logf:    logf,
		}); err != nil {
			fmt.Fprintf(os.Stderr, "nasaicd: %v\n", err)
			os.Exit(2)
		}
		// The coordinator's concurrency limit only bounds dispatch fan-out
		// (no local CPU burned per slot), so an unset -max-jobs scales with
		// the cluster rather than staying at the single-node default.
		set := false
		flag.Visit(func(f *flag.Flag) { set = set || f.Name == "max-jobs" })
		if !set {
			*maxJobs = 4 * len(urls)
		}
	default:
		fmt.Fprintf(os.Stderr, "nasaicd: unknown -role %q (want standalone, coordinator or worker)\n", *role)
		os.Exit(2)
	}

	opts := jobs.Options{
		MaxConcurrent: *maxJobs,
		MaxPending:    *maxPending,
		MaxHistory:    *history,
		ShareMemos:    true,
		CacheDir:      *cachedir,
		DataDir:       *datadir,
		Logf:          logf,
		Tenants:       reg,
	}
	if coord != nil {
		opts.Executor = coord
	}
	m := jobs.NewManager(opts)

	var handler http.Handler
	switch {
	case coord != nil:
		handler = cluster.NewCoordinatorHandler(m, reg, coord)
	case *role == "worker":
		handler = cluster.NewWorkerHandler(m, *clusterKey)
	default:
		handler = jobs.NewAuthHandler(m, reg)
	}
	srv := &http.Server{
		Addr:    *addr,
		Handler: handler,
		// Submissions and polls are quick; the SSE stream manages its own
		// lifetime, so no global write timeout.
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Periodically snapshot the warm tier so a crash loses at most one flush
	// interval of memoized work; Close flushes once more at shutdown. The
	// flusher skips ticks while a flush is still writing and backs off after
	// failures instead of hammering a bad disk.
	if *cachedir != "" && *cacheflush > 0 {
		go newCacheFlusher(m.FlushCaches, logf, *cacheflush).run(ctx)
	}

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	fmt.Printf("nasaicd listening on %s (role=%s, max-jobs=%d)\n", *addr, *role, *maxJobs)
	if coord != nil {
		fmt.Printf("nasaicd: coordinating %d workers: %s\n", len(coord.Status()), *workersCSV)
	}
	if *role == "worker" {
		gate := "open (no -cluster-key)"
		if *clusterKey != "" {
			gate = "shared-key gated"
		}
		fmt.Printf("nasaicd: worker mode, /v1 %s\n", gate)
	}
	if *cachedir != "" {
		fmt.Printf("nasaicd: persistent warm tier at %s (flush every %s)\n", *cachedir, *cacheflush)
	}
	if *datadir != "" {
		fmt.Printf("nasaicd: durable job journal at %s (jobs survive restarts)\n", *datadir)
	}
	if reg != nil {
		fmt.Printf("nasaicd: multi-tenant auth on (%d tenants: %v)\n", len(reg.Names()), reg.Names())
	}

	select {
	case <-ctx.Done():
		fmt.Println("nasaicd: shutting down")
	case err := <-errc:
		fmt.Fprintln(os.Stderr, err)
		m.Close()
		if coord != nil {
			coord.Close()
		}
		os.Exit(1)
	}

	// Stop accepting connections, then cancel the running jobs; SSE streams
	// end with their jobs' terminal events. The coordinator closes after the
	// manager: draining jobs still need the worker pool to cancel their
	// remote halves.
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	m.Close()
	if coord != nil {
		coord.Close()
	}
	if err := srv.Shutdown(shutCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
