// Command cgramapd is the CGRA mapping daemon: a long-lived HTTP server
// exposing the paper's ILP mappers as a job service (internal/service).
//
// Clients POST mapping jobs (DFG + architecture + engine options) to
// /v1/jobs and poll for results; identical jobs are deduplicated
// in-flight and answered from a content-addressed result cache, which is
// what makes the daemon useful for architecture-exploration sweeps that
// revisit the same instances. Operational state is exported at /metrics
// in the Prometheus text format.
//
//	cgramapd -addr :8537 -workers 8 -cache 1024
//
// On SIGINT/SIGTERM the daemon stops accepting jobs and drains: every
// accepted job still runs to completion (bounded by -drain-timeout)
// before the process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"cgramap/internal/faultinject"
	"cgramap/internal/mapper"
	"cgramap/internal/service"
)

func main() {
	var sf mapper.SolveFlags
	flag.IntVar(&sf.Mapper.Workers, "solve-workers", 0, "parallel solver workers inside each job: clause-sharing gang width and process worker budget (0 = all CPUs or $CGRAMAP_WORKERS; 1 = sequential solves)")
	flag.Int64Var(&sf.Mapper.Seed, "seed", 0, "base solver seed for every job (0 = engine defaults)")
	flag.Var(&sf.Mapper.Symmetry, "symmetry", "server-wide symmetry-breaking default for jobs that submit \"auto\": auto (on for auto-II, off at fixed II) | on | off")
	flag.IntVar(&sf.ArtifactCache, "artifact-cache", 64, "artifact cache entries per class (cached MRRGs and formulation templates shared across jobs; <= 0 disables)")
	var (
		addr         = flag.String("addr", ":8537", "HTTP listen address")
		workers      = flag.Int("workers", 4, "solver worker pool size (concurrent jobs)")
		queue        = flag.Int("queue", 64, "max queued solves before 429 backpressure")
		cacheSize    = flag.Int("cache", 512, "result cache entries (negative disables)")
		deadline     = flag.Duration("default-deadline", time.Minute, "solve deadline for jobs that set none")
		maxDeadline  = flag.Duration("max-deadline", 15*time.Minute, "upper clamp on client-requested deadlines")
		jobTimeout   = flag.Duration("job-timeout", 0, "server-side cap on each job's solve wall clock (0 = no cap)")
		degrade      = flag.Bool("degrade", false, "answer queue-full submissions with a fast labelled heuristic mapping (degraded: true) instead of shedding with 429")
		degradedBy   = flag.Duration("degraded-deadline", 2*time.Second, "solve budget for each degraded heuristic answer")
		drainTimeout = flag.Duration("drain-timeout", 10*time.Minute, "max wait for accepted jobs on shutdown")
		chaos        = flag.String("chaos", "", "inject HTTP faults in front of the API (testing only), e.g. 'error=0.1,drop=0.05,truncate=0.1,latency=20ms,latency-p=0.3,seed=1'")
	)
	flag.Parse()
	logger := log.New(os.Stderr, "cgramapd: ", log.LstdFlags)

	mo, err := sf.Options()
	if err != nil {
		logger.Fatal(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	opts := service.Options{
		Workers:      *workers,
		QueueDepth:   *queue,
		CacheEntries: *cacheSize,
		// -artifact-cache alone sizes the cache (mo.Artifacts; nil when
		// disabled), so the server must not build its default one.
		ArtifactCacheEntries: -1,
		DefaultDeadline:      *deadline,
		MaxDeadline:          *maxDeadline,
		JobTimeout:           *jobTimeout,
		DegradeOnOverload:    *degrade,
		DegradedDeadline:     *degradedBy,
		Mapper:               mo,
		Logf:                 logger.Printf,
	}
	var mw func(http.Handler) http.Handler
	if *chaos != "" {
		ho, err := faultinject.ParseHTTPOptions(*chaos)
		if err != nil {
			logger.Fatal(err)
		}
		logger.Printf("CHAOS MODE: injecting HTTP faults (%s) — not for production", *chaos)
		mw = func(h http.Handler) http.Handler { return faultinject.HTTPMiddleware(h, ho) }
	}
	if err := serve(ctx, *addr, opts, *drainTimeout, logger, nil, mw); err != nil {
		logger.Fatal(err)
	}
}

// serve runs the daemon until ctx is cancelled, then drains. When ready
// is non-nil it receives the bound listen address once the server
// accepts connections (the seam the integration tests use for :0).
// mw, when non-nil, wraps the HTTP API (the -chaos fault injector).
func serve(ctx context.Context, addr string, opts service.Options, drainTimeout time.Duration, logger *log.Logger, ready chan<- string, mw func(http.Handler) http.Handler) error {
	svc := service.New(opts)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	handler := svc.Handler()
	if mw != nil {
		handler = mw(handler)
	}
	httpSrv := &http.Server{Handler: handler}

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()
	logger.Printf("listening on %s (%d workers, queue %d, cache %d)",
		ln.Addr(), opts.Workers, opts.QueueDepth, opts.CacheEntries)
	if ready != nil {
		ready <- ln.Addr().String()
	}

	select {
	case err := <-serveErr:
		return fmt.Errorf("http server: %w", err)
	case <-ctx.Done():
	}

	// Drain order matters: first refuse new jobs and finish the accepted
	// ones (clients keep polling over HTTP meanwhile), then close the
	// HTTP side once there is nothing left to report.
	logger.Printf("shutdown requested, draining accepted jobs (up to %v)", drainTimeout)
	drainCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := svc.Shutdown(drainCtx); err != nil {
		logger.Printf("drain incomplete: %v", err)
	} else {
		logger.Printf("drained")
	}
	httpCtx, cancelHTTP := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancelHTTP()
	if err := httpSrv.Shutdown(httpCtx); err != nil {
		return err
	}
	if err := <-serveErr; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}
