// Package serve implements the cyclops-serve daemon: simulation as a
// service over HTTP/JSON, fronted by the content-addressed result
// cache. A request is a job.Spec; cached results are answered
// immediately, identical in-flight runs coalesce to one execution, and
// fresh work goes through a bounded queue with per-client fairness.
// Bytes served for a key are always the canonical result encoding, so a
// warm daemon, a cold daemon and a local harness sweep all ship
// identical results for identical specs.
//
// Every request is traced end to end: the handler roots a span tree
// (joining the client's W3C traceparent when one is sent, and echoing
// the trace back in the response header and body), the scheduler
// records the queue wait, and the job and cache layers hang their
// stage spans — cache lookup, coalesce, execute, encode, store —
// underneath. Per-stage and per-workload latency histograms land on
// /metrics, a JSON access log records one line per run, and a bounded
// ring of recent runs serves /debug/runs.
//
// Endpoints:
//
//	POST /v1/run           run a spec (or fetch its cached result)
//	GET  /v1/result/{key}  fetch a result by spec key, cache-only
//	GET  /v1/workloads     list registered workloads + semantics version
//	GET  /healthz          liveness: uptime, semantics, queue depth
//	GET  /metrics          counter + histogram export (sorted text lines)
//	GET  /debug/runs       recent run records, newest first (JSON)
package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"cyclops/internal/job"
	_ "cyclops/internal/job/workloads" // register the named workloads
	"cyclops/internal/obs"
	"cyclops/internal/resultcache"
)

// Config sizes a Server.
type Config struct {
	// CacheDir is the on-disk cache directory; empty serves from memory
	// only. A non-empty directory that is not a cache (no manifest) is
	// refused at startup.
	CacheDir string
	// CacheMemBytes bounds the in-memory tier (0 = the cache default).
	CacheMemBytes int
	// Workers bounds concurrent simulator executions (0 = 4).
	Workers int
	// QueueLimit bounds queued-but-not-running requests across all
	// clients; past it, submissions get 429 + Retry-After (0 = 64).
	QueueLimit int
	// AccessLog, when non-nil, receives one JSON RunRecord line per
	// completed POST /v1/run request.
	AccessLog io.Writer
	// RecentRuns bounds the /debug/runs ring (0 = DefaultRecentRuns).
	RecentRuns int
	// Tracer overrides the server's span recorder — tests pin its seed
	// and clock for golden traces; nil builds a fresh default tracer.
	// The server's own clock (uptime, access-log stamps) is the
	// tracer's clock, so pinning one pins both.
	Tracer *obs.Tracer
}

// maxRunBody bounds a POST /v1/run body. The largest legal spec is a
// program image filling the chip's 8 MB of memory, base64-encoded, plus
// the envelope around it.
const maxRunBody = 16 << 20

// DefaultWorkers and DefaultQueueLimit are the Config zero-value sizes;
// DefaultRecentRuns bounds the /debug/runs ring.
const (
	DefaultWorkers    = 4
	DefaultQueueLimit = 64
	DefaultRecentRuns = 256
)

// Server is the daemon state: one Runner (cache + singleflight) behind
// one fairness scheduler, plus the telemetry stack (tracer, metrics,
// recent-run ring, access log).
type Server struct {
	runner  *job.Runner
	sched   *scheduler
	metrics *obs.Metrics
	tracer  *obs.Tracer
	mux     *http.ServeMux
	recent  *runLog
	access  *accessLog
	start   time.Time
	workers int
	limit   int

	requests       *obs.Counter
	badRequests    *obs.Counter
	queueFull      *obs.Counter
	runErrors      *obs.Counter
	requestSeconds *obs.Histogram
	queueSeconds   *obs.Histogram
	executeSeconds *obs.Histogram // shared with the runner's stage series
}

// New builds a Server. Cache-directory validation happens here, so a
// refused directory (satellite of the cache-manifest gate) fails
// startup rather than the first request.
func New(cfg Config) (*Server, error) {
	runner := job.NewRunner()
	if cfg.CacheDir != "" {
		c, err := resultcache.Open(cfg.CacheDir, job.SemanticsVersion, cfg.CacheMemBytes)
		if err != nil {
			return nil, err
		}
		runner.Cache = c
	} else {
		runner.Cache = resultcache.OpenMemory(cfg.CacheMemBytes)
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = DefaultWorkers
	}
	limit := cfg.QueueLimit
	if limit <= 0 {
		limit = DefaultQueueLimit
	}
	recent := cfg.RecentRuns
	if recent <= 0 {
		recent = DefaultRecentRuns
	}
	tracer := cfg.Tracer
	if tracer == nil {
		tracer = obs.NewTracer(0)
	}
	runner.Tracer = tracer
	s := &Server{
		runner:  runner,
		sched:   newScheduler(runner, workers, limit),
		metrics: obs.NewMetrics(),
		tracer:  tracer,
		mux:     http.NewServeMux(),
		recent:  newRunLog(recent),
		access:  &accessLog{w: cfg.AccessLog},
		workers: workers,
		limit:   limit,
	}
	s.start = tracer.Now()
	s.requests = s.metrics.Counter("serve_requests")
	s.badRequests = s.metrics.Counter("serve_bad_requests")
	s.queueFull = s.metrics.Counter("serve_queue_full")
	s.runErrors = s.metrics.Counter("serve_run_errors")
	runner.Instrument(s.metrics) // job_*, cache_*, stage + workload histograms
	s.requestSeconds = s.metrics.Histogram("serve_request_seconds")
	s.queueSeconds = s.metrics.Histogram("serve_queue_wait_seconds")
	s.executeSeconds = s.metrics.Histogram("job_stage_seconds", "stage", "execute")
	s.sched.observeQueueWait = func(sp obs.Span) { s.queueSeconds.Observe(sp.Dur) }
	s.metrics.Func("sched_pending", func() uint64 { p, _ := s.sched.load(); return uint64(p) })
	s.metrics.Func("sched_busy", func() uint64 { _, b := s.sched.load(); return uint64(b) })
	s.metrics.Func("trace_spans", s.tracer.Recorded)
	s.metrics.Func("trace_spans_dropped", s.tracer.Dropped)

	s.mux.HandleFunc("POST /v1/run", s.handleRun)
	s.mux.HandleFunc("GET /v1/result/{key}", s.handleResult)
	s.mux.HandleFunc("GET /v1/workloads", s.handleWorkloads)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /debug/runs", s.handleDebugRuns)
	return s, nil
}

// Handler returns the daemon's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Runner exposes the underlying runner: cyclops-serve sets its Defaults
// from the selection flags before listening, and tests read its stats.
func (s *Server) Runner() *job.Runner { return s.runner }

// Tracer exposes the span recorder (the -trace-out shutdown dump and
// in-process CI lanes).
func (s *Server) Tracer() *obs.Tracer { return s.tracer }

// decodeSpec reads a request body that holds exactly one spec: unknown
// fields and anything after the spec but whitespace are errors, the way
// workloads refuse trailing data after args.
func decodeSpec(body io.Reader, spec *job.Spec) error {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(spec); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("trailing data after spec")
	}
	return nil
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	s.requests.Inc()
	started := s.tracer.Now()
	client := clientID(r)

	// Join the caller's trace when it sent a well-formed traceparent,
	// start a fresh one otherwise, and echo the context back so the
	// caller can correlate its logs with /debug/runs and span dumps.
	var root *obs.ActiveSpan
	if tp := r.Header.Get("traceparent"); tp != "" {
		if trace, parent, err := obs.ParseTraceparent(tp); err == nil {
			root = s.tracer.JoinTrace(trace, parent, "request")
		}
	}
	if root == nil {
		root = s.tracer.StartTrace("request")
	}
	root.Attr("client", client)
	w.Header().Set("traceparent", obs.FormatTraceparent(root.TraceID(), root.SpanID()))

	rec := RunRecord{
		Time:   started.UTC().Format(time.RFC3339Nano),
		Trace:  root.TraceID().String(),
		Client: client,
	}
	finish := func(status int, errText string) {
		rec.Status = status
		rec.Error = clip(errText)
		rec.TotalSeconds = s.tracer.Now().Sub(started).Seconds()
		root.Attr("status", strconv.Itoa(status))
		s.requestSeconds.Observe(root.End().Dur)
		s.recent.add(rec)
		s.access.write(rec)
	}

	var spec job.Spec
	if err := decodeSpec(http.MaxBytesReader(w, r.Body, maxRunBody), &spec); err != nil {
		s.badRequests.Inc()
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		err = fmt.Errorf("decoding spec: %w", err)
		httpError(w, status, err)
		finish(status, err.Error())
		return
	}
	rec.Workload = spec.Workload
	// The request's one canonicalize stage: the hit probe and the queued
	// run both take the resolved spec and key from here.
	res, err := s.runner.ResolveTraced(&spec, root)
	if err != nil {
		s.badRequests.Inc()
		httpError(w, http.StatusBadRequest, err)
		finish(http.StatusBadRequest, err.Error())
		return
	}
	rec.Key = res.ID
	root.Attr("key", res.ID)

	// Hits bypass the queue: they cost a map lookup, not a worker.
	if data, ok := s.runner.CachedTraced(&res, root); ok {
		rec.Cached = true
		writeRun(w, &rec, data)
		finish(http.StatusOK, "")
		return
	}
	t := &task{res: res, parent: root, done: make(chan struct{})}
	ok, pending := s.sched.submit(client, t)
	if !ok {
		s.queueFull.Inc()
		rec.QueueDepth = pending
		retry := s.retryAfter(pending)
		w.Header().Set("Retry-After", strconv.Itoa(retry))
		err := fmt.Errorf("queue full, retry in ~%ds", retry)
		httpError(w, http.StatusTooManyRequests, err)
		finish(http.StatusTooManyRequests, err.Error())
		return
	}
	<-t.done
	rec.Cached = t.info.Cached
	rec.Coalesced = t.info.Coalesced
	rec.QueueDepth = t.depth
	rec.QueueSeconds = t.queueWait
	rec.RunSeconds = t.runSeconds
	if t.err != nil {
		// Spec errors were caught above; what remains is a failed run.
		// A deterministic one (a guest trap, the cycle limit, a problem
		// too large for the chip) is the request's fault; a workload
		// panic is the server's. Its stack goes to the standard logger,
		// from the request that ran it, and never to a client.
		s.runErrors.Inc()
		status := http.StatusUnprocessableEntity
		errText := t.err.Error()
		var pe *job.PanicError
		if errors.As(t.err, &pe) {
			status = http.StatusInternalServerError
			if !t.info.Coalesced {
				log.Printf("cyclops-serve: run %s (trace %s): %s", res.ID, rec.Trace, errText)
			}
			errText = strings.Replace(errText, pe.Error(), pe.Summary(), 1)
		}
		httpError(w, status, errors.New(errText))
		finish(status, errText)
		return
	}
	writeRun(w, &rec, t.data)
	finish(http.StatusOK, "")
}

// retryAfter estimates how long a refused client should back off:
// the pending backlog divided by the worker count, scaled by the
// observed p90 execute latency — so a daemon running second-long
// simulations tells clients to come back later than one serving
// millisecond jobs. Before any execution has been observed it falls
// back to assuming a second per backlog slot per worker.
func (s *Server) retryAfter(pending int) int {
	p90 := s.executeSeconds.Quantile(0.9)
	if p90 == 0 {
		return pending/s.workers + 1
	}
	secs := int(math.Ceil(float64(pending) / float64(s.workers) * p90))
	if secs < 1 {
		secs = 1
	}
	if secs > 600 {
		secs = 600
	}
	return secs
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	s.requests.Inc()
	key, err := resultcache.ParseKey(r.PathValue("key"))
	if err != nil {
		s.badRequests.Inc()
		httpError(w, http.StatusBadRequest, err)
		return
	}
	data, ok := s.runner.Cached(key, nil)
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("no cached result for %s", key))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(data)
}

func (s *Server) handleWorkloads(w http.ResponseWriter, r *http.Request) {
	s.requests.Inc()
	writeJSON(w, map[string]any{
		"workloads": job.WorkloadNames(),
		"semantics": job.SemanticsVersion,
	})
}

// healthzBody is the GET /healthz response: liveness plus the numbers a
// load balancer or operator needs at a glance.
type healthzBody struct {
	Status        string  `json:"status"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	Semantics     string  `json:"semantics"`
	Queue         struct {
		Pending int `json:"pending"`
		Busy    int `json:"busy"`
		Workers int `json:"workers"`
		Limit   int `json:"limit"`
	} `json:"queue"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	var h healthzBody
	h.Status = "ok"
	h.UptimeSeconds = s.tracer.Now().Sub(s.start).Seconds()
	h.Semantics = job.SemanticsVersion
	h.Queue.Pending, h.Queue.Busy = s.sched.load()
	h.Queue.Workers = s.workers
	h.Queue.Limit = s.limit
	writeJSON(w, h)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_ = s.metrics.WriteText(w)
}

func (s *Server) handleDebugRuns(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, map[string]any{"runs": s.recent.snapshot()})
}

// clientID names the fairness queue a request belongs to: the
// X-Cyclops-Client header when set (cooperating tools labelling
// themselves), else the remote host.
func clientID(r *http.Request) string {
	if c := r.Header.Get("X-Cyclops-Client"); c != "" {
		return c
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// writeRun writes the POST /v1/run body for rec: the spec's content key,
// the request's trace ID, whether the cache served it, and the canonical
// result encoding verbatim, as one JSON object and a newline. These are
// the bytes a json.Encoder writes for that object with the result as a
// json.RawMessage, assembled around the stored result instead of
// re-encoding it: the key and trace are hex and need no escaping, and a
// stored result is json.Marshal output, already compact and HTML-escaped,
// which is what the encoder would make of it.
func writeRun(w http.ResponseWriter, rec *RunRecord, result []byte) {
	w.Header().Set("Content-Type", "application/json")
	for _, s := range [...]string{`{"key":"`, rec.Key, `","trace":"`, rec.Trace, `","cached":`, strconv.FormatBool(rec.Cached), `,"result":`} {
		_, _ = io.WriteString(w, s)
	}
	_, _ = w.Write(result)
	_, _ = io.WriteString(w, "}\n")
}

func writeJSON(w http.ResponseWriter, v any) {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(buf.Bytes())
}

func httpError(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": clip(err.Error())})
}

// maxErrorText bounds the error text of a reply and of a run record. Some
// errors quote the request (an unknown field's name, a bad argument), and
// what the server writes back or logs stays small whatever it was sent.
const maxErrorText = 1 << 10

// clip cuts msg to maxErrorText bytes, marking the cut.
func clip(msg string) string {
	if len(msg) <= maxErrorText {
		return msg
	}
	return msg[:maxErrorText] + " [...]"
}
