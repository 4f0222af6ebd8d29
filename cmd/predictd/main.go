// Command predictd serves the paper's procurement question over
// HTTP/JSON: "how fast will application X's test case run on machine Y
// at Z processors, by metric M?" — prediction-as-a-service on top of the
// shared internal/predictor facade.
//
// Endpoints:
//
//	GET /v1/predict?app=&case=&procs=&target=&metric=[&observed=1]
//	GET /v1/rank?app=&case=&procs=&metric=[&targets=a,b][&observed=1]
//	GET /v1/apps       GET /v1/machines     GET /v1/cache
//	GET /v1/status     GET /healthz         GET /metrics
//	GET /debug/pprof/* (with -pprof)
//
// Built for heavy concurrent traffic: probe suites, traces, and
// predictions are deterministic, so they are memoized with exact cache
// hits; identical concurrent cold requests coalesce onto one
// computation; a bounded worker gate sheds load with 429 + Retry-After
// when the queue saturates; and every request runs under a deadline
// derived from the client's own context, so a disconnect or timeout
// cancels the work instead of orphaning it.
//
// Every request is traced: an incoming W3C traceparent header joins the
// caller's trace (and is echoed back), otherwise the request starts a
// fresh one. With -spans each request becomes a span tree streamed to a
// rotating JSONL file as spans finish; with -access-log each request
// additionally leaves one structured access record carrying the same
// trace ID, so the two logs join. cmd/tracecheck -serve cross-validates
// the pair.
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
	"runtime"
	"syscall"
	"time"

	"hpcmetrics/internal/obs"
	"hpcmetrics/internal/predictor"
)

func main() {
	// A signal-cancelled root: ^C or SIGTERM drains in-flight requests
	// through http.Server.Shutdown instead of dropping them mid-write.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "predictd:", err)
		os.Exit(1)
	}
}

// serveOptions is everything run parses from flags, separated so tests
// drive serve directly.
type serveOptions struct {
	addr            string
	workers         int
	queue           int
	requestTimeout  time.Duration
	shutdownTimeout time.Duration
	readyFile       string
	spansPath       string // "" = no span log (spans are dropped, traces still flow)
	accessPath      string // "" = no access log
	logMaxBytes     int64
	statusWindow    time.Duration
	runtimeSample   time.Duration
	pprof           bool
}

func run(ctx context.Context) error {
	var opts serveOptions
	flag.StringVar(&opts.addr, "addr", "127.0.0.1:8080", "listen address (host:port; port 0 picks a free port)")
	flag.IntVar(&opts.workers, "workers", 0, "concurrently served requests (0 = GOMAXPROCS)")
	flag.IntVar(&opts.queue, "queue", 64, "requests allowed to wait for a worker before 429s")
	flag.DurationVar(&opts.requestTimeout, "request-timeout", 2*time.Minute, "per-request deadline (0 = bounded only by the client)")
	flag.DurationVar(&opts.shutdownTimeout, "shutdown-timeout", 10*time.Second, "grace period for in-flight requests on shutdown")
	flag.StringVar(&opts.readyFile, "ready-file", "", "write the bound address to this file once listening (for scripts using port 0)")
	flag.StringVar(&opts.spansPath, "spans", "", "stream finished spans to this JSONL file (empty = spans dropped)")
	flag.StringVar(&opts.accessPath, "access-log", "", "write one JSONL access record per request to this file")
	flag.Int64Var(&opts.logMaxBytes, "log-max-bytes", 64<<20, "rotate span/access logs past this size (<= 0 disables rotation)")
	flag.DurationVar(&opts.statusWindow, "status-window", 60*time.Second, "rolling window for /v1/status latency quantiles")
	flag.DurationVar(&opts.runtimeSample, "runtime-sample", 5*time.Second, "runtime gauge sampling interval")
	flag.BoolVar(&opts.pprof, "pprof", false, "serve /debug/pprof/* (off by default)")
	flag.Parse()
	return serve(ctx, opts)
}

// serve runs the server until ctx is cancelled, then drains in-flight
// requests and closes the logs — after the drain, so a request finishing
// during shutdown still lands complete in both logs (no torn tails).
func serve(ctx context.Context, opts serveOptions) (err error) {
	o := obs.New()
	var spanFile *obs.JSONLFile
	if opts.spansPath != "" {
		spanFile, err = obs.OpenJSONLFile(opts.spansPath, opts.logMaxBytes)
		if err != nil {
			return err
		}
		o.Tracer.SetSink(spanFile)
	} else {
		// No span log, but requests still get trace IDs (for access-log
		// joins and traceparent echoes); Discard keeps the tracer from
		// buffering spans for the life of the process.
		o.Tracer.SetSink(obs.Discard{})
	}
	var access *obs.JSONLFile
	if opts.accessPath != "" {
		access, err = obs.OpenJSONLFile(opts.accessPath, opts.logMaxBytes)
		if err != nil {
			return errors.Join(err, spanFile.Close())
		}
	}
	defer func() {
		err = errors.Join(err, access.Close(), spanFile.Close())
	}()

	samplerCtx, stopSampler := context.WithCancel(ctx)
	samplerDone := obs.StartRuntimeSampler(samplerCtx, o.Meter(), opts.runtimeSample)
	defer func() {
		stopSampler()
		<-samplerDone
	}()

	p := predictor.New(predictor.Config{Workers: opts.workers})
	srv := newServer(p, o, access, serverConfig{
		workers:        effectiveWorkers(opts.workers),
		queueLimit:     opts.queue,
		requestTimeout: opts.requestTimeout,
		statusWindow:   opts.statusWindow,
		pprof:          opts.pprof,
	})

	ln, err := net.Listen("tcp", opts.addr)
	if err != nil {
		return err
	}
	bound := ln.Addr().String()
	if opts.readyFile != "" {
		if err := os.WriteFile(opts.readyFile, []byte(bound+"\n"), 0o644); err != nil {
			return errors.Join(err, ln.Close())
		}
	}
	fmt.Fprintf(os.Stderr, "predictd: listening on %s (workers %d, queue %d, request timeout %s, spans %s, access log %s)\n",
		bound, effectiveWorkers(opts.workers), opts.queue, opts.requestTimeout,
		orNone(opts.spansPath), orNone(opts.accessPath))

	hs := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		BaseContext:       func(net.Listener) context.Context { return ctx },
	}
	done := make(chan error, 1)
	go func() {
		<-ctx.Done()
		// The buffer guarantees the send never blocks (one send ever),
		// so the default branch is unreachable.
		select {
		case done <- shutdownWithGrace(hs, opts.shutdownTimeout):
		default:
		}
	}()
	if err := hs.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	if err := <-done; err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	fmt.Fprintln(os.Stderr, "predictd: drained and stopped")
	return nil
}

// shutdownWithGrace drains in-flight requests under a fresh deadline. It
// takes no context on purpose: the root that triggered the shutdown is
// already cancelled, so the grace period must not derive from it.
func shutdownWithGrace(hs *http.Server, grace time.Duration) error {
	ctx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	return hs.Shutdown(ctx)
}

// effectiveWorkers resolves the 0-means-GOMAXPROCS default once, so the
// gate and the startup banner agree.
func effectiveWorkers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// orNone renders an optional path for the startup banner.
func orNone(path string) string {
	if path == "" {
		return "(none)"
	}
	return path
}
