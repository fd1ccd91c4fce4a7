// Command sweepd is the simulation sweep service: a long-lived HTTP/JSON
// daemon that serves the experiments layer (internal/sweepsrv) instead of
// running it as a one-shot CLI. It holds a pool of persistent warm
// machines (one per worker, reset bit-identically between jobs), a bounded
// job queue with explicit 429/Retry-After backpressure, and a
// content-addressed result cache: submitting a config that already ran
// returns the byte-identical result with "cache": "hit" and zero
// additional simulation work.
//
// Usage:
//
//	sweepd -addr :8356 -workers 4 -queue 32
//
// API (see DESIGN.md §15 and EXPERIMENTS.md for curl recipes):
//
//	POST   /sweep        {"exp":"fig9","apps":["radix"],"work":4000}
//	GET    /result/{id}  status, then the terminal result envelope
//	GET    /stream/{id}  SSE progress (?format=ndjson for NDJSON lines)
//	DELETE /job/{id}     cancel a queued or running job
//	GET    /healthz      liveness and drain state
//	GET    /metrics      queue/pool/cache/job counters as JSON
//
// On SIGINT/SIGTERM the daemon shuts down gracefully: submissions are
// refused with 503, running jobs drain to completion, queued jobs fail
// with the distinct "aborted" status, every progress stream receives its
// terminal event and closes, and the process exits 0. -drain-timeout
// bounds the drain; past it, running jobs are canceled at their next cell
// boundary.
//
// Load is measured by perfbench's open-loop sweepd-open workload, which
// drives an in-process server over real HTTP; scripts/perfsnap.sh records
// its latency percentiles.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"bulksc/internal/sweepsrv"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the testable entry point: parse flags, then serve until a
// termination signal (returning 0 after a clean drain).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sweepd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr    = fs.String("addr", "127.0.0.1:8356", "listen address")
		workers = fs.Int("workers", 2, "pool size: persistent warm machines serving jobs")
		queue   = fs.Int("queue", 16, "job queue depth; a full queue answers 429 + Retry-After")
		cache   = fs.Int("cache", 128, "content-addressed result cache entries (LRU)")
		maxWork = fs.Int("max-work", 500_000, "per-thread instruction cap per request (0 = uncapped)")
		retain  = fs.Int("retain", 1024, "finished jobs kept addressable via /result and /stream")
		drain   = fs.Int("drain-timeout", 60, "seconds to drain running jobs on shutdown before canceling them")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg := sweepsrv.Config{
		Workers:      *workers,
		QueueDepth:   *queue,
		CacheEntries: *cache,
		MaxWork:      *maxWork,
		RetainJobs:   *retain,
	}

	// Route termination signals BEFORE announcing the address: the listen
	// line below invites clients (and the graceful-shutdown test) to start
	// signaling, so the default kill-the-process action must already be
	// disarmed by then.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	srv := sweepsrv.NewServer(cfg)
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(stderr, "sweepd:", err)
		return 1
	}
	hs := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	// The resolved address line is a contract: tests (and scripts) listen
	// on :0 and scrape the port from here.
	fmt.Fprintf(stdout, "sweepd: listening on %s (%d workers, queue %d, cache %d)\n",
		ln.Addr(), cfg.Workers, cfg.QueueDepth, cfg.CacheEntries)

	select {
	case err := <-serveErr:
		fmt.Fprintln(stderr, "sweepd:", err)
		return 1
	case <-ctx.Done():
	}

	fmt.Fprintf(stdout, "sweepd: shutting down (draining up to %ds)\n", *drain)
	drainCtx, cancel := context.WithTimeout(context.Background(), time.Duration(*drain)*time.Second)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		// Jobs past the deadline were canceled at their next cell
		// boundary; the pool still wound down cleanly, so this is a
		// degraded-but-clean exit, reported as such.
		fmt.Fprintln(stderr, "sweepd: drain deadline passed; running jobs were canceled:", err)
	}
	// Streams have their terminal events; now close the HTTP side.
	httpCtx, hcancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer hcancel()
	hs.Shutdown(httpCtx)
	fmt.Fprintln(stdout, "sweepd: drained, exiting")
	return 0
}
