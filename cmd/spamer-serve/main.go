// Command spamer-serve runs the simulation-as-a-service daemon: a
// long-lived HTTP server that executes experiments.Spec jobs (the JSON
// cmd/spamer-run reads) on the internal/harness pool, with bounded
// admission (429 + Retry-After under overload), a content-addressed
// result cache, live SSE progress, and Prometheus metrics. See
// docs/SERVICE.md for the API.
//
// With -fabric (the default) the daemon is also the coordinator of the
// distributed simulation fabric (docs/FABRIC.md): spamer-worker
// processes register under /v1/fabric/, jobs shard by canonical spec
// hash onto the pool with queue-depth-aware placement and lease-based
// retry, and a shared content-addressed result store makes any
// worker's completed spec a cache hit for every client. With no
// workers attached, the coordinator's local fallback reproduces
// single-process behaviour exactly.
//
// Usage:
//
//	spamer-serve [-addr :8080] [-queue 64] [-jobs 1] [-parallel N]
//	             [-cache 256] [-run-timeout 0] [-drain-timeout 30s]
//	             [-fabric] [-fabric-heartbeat 2s] [-fabric-expire 6s]
//	             [-fabric-dispatch-timeout 10m] [-fabric-attempts 3]
//	             [-fabric-store 4096]
//
// SIGTERM/SIGINT triggers a graceful drain: admission stops, every
// admitted job finishes (bounded by -drain-timeout), then the process
// exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"spamer/internal/fabric"
	"spamer/internal/service"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	queue := flag.Int("queue", 64, "admission queue depth (full queue returns 429)")
	jobs := flag.Int("jobs", 1, "jobs executed concurrently")
	parallel := flag.Int("parallel", 0, "simulations per job run concurrently (0 = GOMAXPROCS)")
	cacheEntries := flag.Int("cache", 256, "result cache entries (negative disables)")
	runTimeout := flag.Duration("run-timeout", 0, "per-simulation timeout (0 = none)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "max wait for in-flight jobs on shutdown")
	useFabric := flag.Bool("fabric", true, "coordinate a spamer-worker pool (docs/FABRIC.md)")
	fabricHeartbeat := flag.Duration("fabric-heartbeat", 2*time.Second, "heartbeat cadence told to workers")
	fabricExpire := flag.Duration("fabric-expire", 0, "presence deadline for silent workers (0 = 3x heartbeat)")
	fabricDispatch := flag.Duration("fabric-dispatch-timeout", 10*time.Minute, "lease bound for one dispatched spec shard")
	fabricAttempts := flag.Int("fabric-attempts", 3, "re-dispatches per spec before local fallback")
	fabricStore := flag.Int("fabric-store", 4096, "shared per-spec result store entries (negative disables)")
	flag.Parse()

	var coord *fabric.Coordinator
	if *useFabric {
		coord = fabric.NewCoordinator(fabric.CoordinatorOptions{
			HeartbeatEvery:  *fabricHeartbeat,
			ExpireAfter:     *fabricExpire,
			DispatchTimeout: *fabricDispatch,
			MaxAttempts:     *fabricAttempts,
			StoreEntries:    *fabricStore,
			LocalWorkers:    *parallel,
			RunTimeout:      *runTimeout,
		})
	}
	srv := service.New(service.Options{
		QueueDepth:   *queue,
		JobWorkers:   *jobs,
		RunWorkers:   *parallel,
		RunTimeout:   *runTimeout,
		CacheEntries: *cacheEntries,
		Fabric:       coord,
	})
	// A client that stalls mid-header or idles on a keep-alive
	// connection is cut off. There is no WriteTimeout: it would also
	// cut long-lived responses such as the SSE event streams.
	hs := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	errCh := make(chan error, 1)
	go func() { errCh <- hs.ListenAndServe() }()
	mode := "single-process"
	if coord != nil {
		mode = "fabric coordinator"
	}
	fmt.Fprintf(os.Stderr, "spamer-serve: listening on %s (queue=%d jobs=%d, %s)\n", *addr, *queue, *jobs, mode)

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGTERM, syscall.SIGINT)

	select {
	case sig := <-sigCh:
		fmt.Fprintf(os.Stderr, "spamer-serve: %v: draining (finishing admitted jobs, up to %v)\n", sig, *drainTimeout)
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := srv.Drain(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "spamer-serve: drain incomplete: %v\n", err)
			srv.Close()
			hs.Close()
			os.Exit(1)
		}
		hs.Shutdown(ctx)
		fmt.Fprintln(os.Stderr, "spamer-serve: drained cleanly")
	case err := <-errCh:
		if !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "spamer-serve: %v\n", err)
			os.Exit(1)
		}
	}
}
