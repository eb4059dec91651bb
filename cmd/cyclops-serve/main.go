// Command cyclops-serve runs the simulation-as-a-service daemon: an
// HTTP/JSON frontend over the job layer and the content-addressed
// result cache.
//
// Usage:
//
//	cyclops-serve [-addr :8372] [-cache-dir DIR] [-cache-mem MB]
//	              [-workers N] [-queue N] [-recent N]
//	              [-access-log FILE] [-trace-out FILE] [-debug-addr ADDR]
//	              [-policy P] [-switch-penalty N] [-lat SPEC]
//
// POST a job spec to /v1/run and get the canonical result back; repeat
// the POST and the cache answers without running the simulator.
// Identical concurrent requests coalesce to one execution; fresh work
// queues behind -workers simulator slots with per-client fairness, and
// a full queue answers 429 with a Retry-After estimate derived from the
// observed execute-latency histogram. /healthz and /metrics serve
// liveness and counters, and /debug/runs the -recent most recent run
// records.
//
// Every request is traced: send a W3C traceparent header and the daemon
// joins your trace (echoing the context back); omit it and each request
// roots its own. -access-log appends one JSON line per run ("-" =
// stdout). -trace-out writes the recorded request spans as a Chrome
// trace-event JSON (load it in Perfetto) when the daemon shuts down
// cleanly on SIGINT/SIGTERM; the file is created up front. -debug-addr
// starts a second listener serving net/http/pprof — keep it private;
// the main listener never exposes the profiler.
//
// -cache-dir persists results across restarts. The directory must be a
// result cache (carrying the cache's manifest) or empty; pointing the
// daemon at a non-empty non-cache directory is refused at startup. The
// policy/latency flags set the daemon-wide defaults a spec inherits when
// it leaves those fields empty. A spec names no execution engine: every
// request runs on the block engine, whose results the legacy oracle
// matches byte for byte, and a spec that sends an "engine" field is a 400.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof" // -debug-addr listener only; the main mux never mounts this
	"os"
	"os/signal"
	"syscall"

	"cyclops/internal/cli"
	"cyclops/internal/job"
	"cyclops/internal/obs"
	"cyclops/internal/serve"
)

func main() {
	addr := flag.String("addr", ":8372", "listen address")
	cacheDir := flag.String("cache-dir", "", "on-disk result cache directory (empty: memory only)")
	cacheMem := flag.Int("cache-mem", 64, "in-memory cache tier budget in MiB")
	workers := flag.Int("workers", serve.DefaultWorkers, "concurrent simulator executions")
	queue := flag.Int("queue", serve.DefaultQueueLimit, "max queued requests before 429")
	recent := flag.Int("recent", serve.DefaultRecentRuns, "run records retained for /debug/runs")
	accessLog := flag.String("access-log", "", "append one JSON line per run to this file (- = stdout)")
	traceOut := flag.String("trace-out", "", "write recorded request spans as Chrome trace-event JSON on clean shutdown (- = stdout)")
	debugAddr := flag.String("debug-addr", "", "separate listen address for net/http/pprof (empty: off)")
	jf := job.AddFlags(flag.CommandLine)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected arguments %q", flag.Args()))
	}
	defaults, err := jf.Defaults()
	if err != nil {
		fatal(err)
	}

	// Outputs open before the listener: a bad path must fail at startup,
	// not at shutdown (trace) or on the first request (access log).
	var logW io.Writer
	if *accessLog == "-" {
		logW = os.Stdout
	} else if *accessLog != "" {
		f, err := os.OpenFile(*accessLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		logW = f
	}
	outTrace, err := cli.CreateOut(*traceOut)
	if err != nil {
		fatal(err)
	}

	srv, err := serve.New(serve.Config{
		CacheDir:      *cacheDir,
		CacheMemBytes: *cacheMem << 20,
		Workers:       *workers,
		QueueLimit:    *queue,
		RecentRuns:    *recent,
		AccessLog:     logW,
	})
	if err != nil {
		fatal(err)
	}
	srv.Runner().Defaults = defaults
	if *debugAddr != "" {
		// http.DefaultServeMux carries the pprof handlers registered by
		// the net/http/pprof import.
		go func() {
			fatal(http.ListenAndServe(*debugAddr, http.DefaultServeMux))
		}()
		fmt.Fprintf(os.Stderr, "cyclops-serve: pprof on %s/debug/pprof/\n", *debugAddr)
	}
	where := "memory-only cache"
	if *cacheDir != "" {
		where = "cache at " + *cacheDir
	}
	fmt.Fprintf(os.Stderr, "cyclops-serve: listening on %s (%s, %d workers, semantics %s)\n",
		*addr, where, *workers, job.SemanticsVersion)

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	select {
	case err := <-errCh:
		fatal(err)
	case <-ctx.Done():
	}
	if err := httpSrv.Shutdown(context.Background()); err != nil {
		fmt.Fprintln(os.Stderr, "cyclops-serve: shutdown:", err)
	}
	if err := outTrace.Emit(func(w io.Writer) error {
		tr := srv.Tracer()
		if n := tr.Dropped(); n > 0 {
			fmt.Fprintf(os.Stderr, "cyclops-serve: trace ring overflowed, oldest %d spans dropped\n", n)
		}
		return obs.WriteSpansChrome(w, tr.Snapshot())
	}); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	if errors.Is(err, http.ErrServerClosed) {
		return
	}
	fmt.Fprintln(os.Stderr, "cyclops-serve:", err)
	os.Exit(1)
}
