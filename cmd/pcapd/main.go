// Command pcapd serves the simulator over HTTP: policy evaluation,
// trace replay and fleet jobs as JSON, on a bounded worker pool with
// shared per-seed suites and live counters (internal/server).
//
// Usage:
//
//	pcapd -addr :8080 -workers 4 -traces ./traces
//	pcapd -addr 127.0.0.1:0 -addrfile pcapd.addr   # scripts read the bound address
//
// Endpoints:
//
//	POST /jobs            submit a job spec; ?wait=1 blocks until it finishes
//	GET  /jobs/{id}       poll a job
//	GET  /jobs/{id}/events  follow a job as Server-Sent Events
//	POST /jobs/{id}/cancel  cancel a job
//	POST /traces          upload a trace file, returns a reference ID
//	GET  /stats           live counters (jobs, events, energy) + pool state
//	GET  /healthz         liveness probe
//
// A job's output is byte-identical to the equivalent pcapsim run: the
// daemon calls the same library entry points over the same sources.
// SIGINT/SIGTERM drain gracefully — new submissions are rejected, the
// backlog finishes (bounded by -drain), then running jobs are canceled.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"pcapsim/internal/server"
)

func main() {
	var (
		addrFlag     = flag.String("addr", ":8080", "listen address (host:port; port 0 picks a free port)")
		addrFileFlag = flag.String("addrfile", "", "write the bound listen address to this file (for scripts using port 0)")
		workersFlag  = flag.Int("workers", 0, "job worker pool size (0 = one per CPU)")
		queueFlag    = flag.Int("queue", 64, "maximum queued jobs before submissions get 503")
		timeoutFlag  = flag.Duration("timeout", 5*time.Minute, "default per-job timeout (a spec's timeout_sec overrides)")
		tracesFlag   = flag.String("traces", "", "directory job specs may reference trace files from (empty = uploads only)")
		drainFlag    = flag.Duration("drain", 30*time.Second, "graceful-shutdown grace before running jobs are canceled")
	)
	flag.Parse()

	srv, err := server.New(server.Config{
		Workers:        *workersFlag,
		QueueDepth:     *queueFlag,
		DefaultTimeout: *timeoutFlag,
		TraceDir:       *tracesFlag,
	})
	if err != nil {
		fatal(err)
	}

	ln, err := net.Listen("tcp", *addrFlag)
	if err != nil {
		fatal(err)
	}
	bound := ln.Addr().String()
	if *addrFileFlag != "" {
		if err := os.WriteFile(*addrFileFlag, []byte(bound+"\n"), 0o644); err != nil {
			fatal(fmt.Errorf("-addrfile: %w", err))
		}
	}
	fmt.Fprintf(os.Stderr, "pcapd: listening on %s (workers=%d queue=%d)\n", bound, srv.Config().Workers, *queueFlag)

	hs := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "pcapd: %s, draining (up to %s)\n", s, *drainFlag)
	case err := <-serveErr:
		fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainFlag)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "pcapd: http shutdown:", err)
	}
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "pcapd: job pool shutdown:", err)
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatal(err)
	}
	fmt.Fprintln(os.Stderr, "pcapd: stopped")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pcapd:", err)
	os.Exit(1)
}
