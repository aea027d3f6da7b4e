// Command fgpd is the resident compile-and-simulate daemon: an HTTP/JSON
// service that accepts IR kernels (or names of the built-in evaluation
// kernels), compiles them through the full pipeline with a content-addressed
// artifact cache, simulates them under admission control with per-request
// deadlines, and reports cycles, speedup, stall attribution and traces.
//
// Usage:
//
//	fgpd -addr 127.0.0.1:8095
//	curl -s localhost:8095/v1/run -d '{"kernel":"sphot-1","cores":3}'
//	curl -s 'localhost:8095/v1/attribution?kernel=sphot-1&cores=1,3'
//	curl -s localhost:8095/metrics
//
// SIGINT/SIGTERM drain the server gracefully: /healthz flips to 503, new
// work is refused, and in-flight requests run to completion (bounded by
// -drain-timeout).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"fgp/internal/service"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its environment made explicit for testing.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fgpd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:8095", "listen address")
	workers := fs.Int("workers", 0, "max concurrent compile/simulate requests (0 = one per CPU)")
	queueDepth := fs.Int("queue-depth", 0, "max requests waiting for a worker before 429 (0 = 64)")
	timeout := fs.Duration("timeout", 0, "per-request wall-clock budget (0 = 60s)")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for in-flight requests")
	storeDir := fs.String("store-dir", "", "on-disk artifact store directory; restarts and replicas sharing it warm-start instead of recompiling (empty = memory-only)")
	storeMaxBytes := fs.Int64("store-max-bytes", 0, "LRU byte budget of -store-dir (0 = 1 GiB)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	// Reject what service.Config would otherwise silently turn into a
	// default, before listening.
	usage := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "fgpd: "+format+"\n", args...)
		return 2
	}
	switch {
	case fs.NArg() > 0:
		return usage("unexpected argument %q (fgpd takes only flags)", fs.Arg(0))
	case *workers < 0:
		return usage("-workers must be >= 0 (got %d)", *workers)
	case *queueDepth < 0:
		return usage("-queue-depth must be >= 0 (got %d)", *queueDepth)
	case *timeout < 0:
		return usage("-timeout must be >= 0 (got %v)", *timeout)
	case *drainTimeout < 0:
		return usage("-drain-timeout must be >= 0 (got %v)", *drainTimeout)
	case *storeMaxBytes < 0:
		return usage("-store-max-bytes must be >= 0 (got %d)", *storeMaxBytes)
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "fgpd:", err)
		return 1
	}

	svc, err := service.New(service.Config{
		Workers:       *workers,
		QueueDepth:    *queueDepth,
		Timeout:       *timeout,
		StoreDir:      *storeDir,
		StoreMaxBytes: *storeMaxBytes,
	})
	if err != nil {
		return fail(err)
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fail(err)
	}
	srv := &http.Server{
		Handler:           svc.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	fmt.Fprintf(stdout, "fgpd listening on http://%s\n", ln.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	select {
	case err := <-serveErr:
		return fail(err)
	case <-ctx.Done():
	}
	stop() // a second signal kills immediately instead of draining
	fmt.Fprintln(stdout, "fgpd: signal received, draining")
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := svc.Drain(dctx); err != nil {
		_ = srv.Close()
		return fail(err)
	}
	if err := srv.Shutdown(dctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return fail(err)
	}
	fmt.Fprintln(stdout, "fgpd: drained cleanly")
	return 0
}
