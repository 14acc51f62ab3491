// Command spamer-worker is the fabric worker agent: it registers with
// a spamer-serve coordinator, heartbeats its presence and queue depth,
// and executes leased spec shards via the exact local runner
// (experiments.RunSpecsParallel), so a distributed run's per-spec
// outcomes are byte-identical to a local one. See docs/FABRIC.md.
//
// Usage:
//
//	spamer-worker -coordinator http://coord:8080 [-addr :9090]
//	              [-advertise http://host:9090] [-id host-pid]
//	              [-slots 1] [-parallel N] [-run-timeout 0]
//	              [-drain-timeout 30s]
//
// SIGTERM/SIGINT triggers a graceful drain: /healthz flips to 503 and
// a draining heartbeat tells the coordinator to stop placing leases
// here, in-flight leases finish (bounded by -drain-timeout), then the
// process exits.
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

	"spamer/internal/fabric"
)

func main() {
	coordinator := flag.String("coordinator", "", "coordinator base URL (required), e.g. http://coord:8080")
	addr := flag.String("addr", ":9090", "listen address")
	advertise := flag.String("advertise", "", "base URL the coordinator dials back (default http://<hostname>:<port> from -addr)")
	id := flag.String("id", "", "stable worker identity (default <hostname>-<pid>)")
	slots := flag.Int("slots", 1, "spec shards executed concurrently (excess leases bounce with 503)")
	parallel := flag.Int("parallel", 0, "simulations per shard run concurrently (0 = GOMAXPROCS)")
	runTimeout := flag.Duration("run-timeout", 0, "per-simulation timeout (0 = none)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "max wait for in-flight leases on shutdown")
	flag.Parse()

	if *coordinator == "" {
		fmt.Fprintln(os.Stderr, "spamer-worker: -coordinator is required")
		os.Exit(2)
	}
	host, _ := os.Hostname()
	if host == "" {
		host = "worker"
	}
	if *id == "" {
		*id = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	if *advertise == "" {
		_, port, err := net.SplitHostPort(*addr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "spamer-worker: cannot derive -advertise from -addr %q: %v\n", *addr, err)
			os.Exit(2)
		}
		*advertise = fmt.Sprintf("http://%s:%s", host, port)
	}

	w := fabric.NewWorker(fabric.WorkerOptions{
		ID:          *id,
		Coordinator: *coordinator,
		Advertise:   *advertise,
		Slots:       *slots,
		RunWorkers:  *parallel,
		RunTimeout:  *runTimeout,
		Log:         os.Stderr,
	})
	// A client that stalls mid-header or idles on a keep-alive
	// connection is cut off. There is no WriteTimeout: it would also
	// cut long-lived responses such as the SSE event streams.
	hs := &http.Server{
		Addr:              *addr,
		Handler:           w.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	errCh := make(chan error, 1)
	go func() { errCh <- hs.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "spamer-worker: %s listening on %s, advertising %s\n", *id, *addr, *advertise)

	announceCtx, stopAnnounce := context.WithCancel(context.Background())
	go w.Announce(announceCtx)

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGTERM, syscall.SIGINT)

	select {
	case sig := <-sigCh:
		fmt.Fprintf(os.Stderr, "spamer-worker: %v: draining (finishing leases, up to %v)\n", sig, *drainTimeout)
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		err := w.Drain(ctx)
		stopAnnounce() // final heartbeat goes out carrying Draining=true
		if err != nil {
			fmt.Fprintf(os.Stderr, "spamer-worker: drain incomplete: %v\n", err)
			hs.Close()
			os.Exit(1)
		}
		hs.Shutdown(ctx)
		fmt.Fprintln(os.Stderr, "spamer-worker: drained cleanly")
	case err := <-errCh:
		stopAnnounce()
		if !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "spamer-worker: %v\n", err)
			os.Exit(1)
		}
	}
}
