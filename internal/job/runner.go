package job

import (
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"cyclops/internal/obs"
	"cyclops/internal/resultcache"
	"cyclops/internal/sim"
)

// Stats is a snapshot of a Runner's activity.
type Stats struct {
	// Hits counts cache hits; Misses cache consultations that found
	// nothing (a Runner without a cache counts every run as a miss).
	Hits, Misses uint64
	// Coalesced counts submissions that joined an identical in-flight
	// execution instead of starting their own.
	Coalesced uint64
	// Executions counts actual simulator runs — the number the warm-cache
	// acceptance test pins at zero on a repeated sweep.
	Executions uint64
	// Errors counts executions that failed (failures are never cached).
	Errors uint64
	// ChipsBuilt counts the chips executions built; every other execution
	// ran on an idle chip of its shape, reset (see chipPool).
	ChipsBuilt uint64
}

// ErrPanic is what a run fails with, wrapped, when its workload panics.
// The Runner recovers the panic into a *PanicError, so a workload can
// neither end the process nor leave the waiters coalesced on its run
// hanging.
var ErrPanic = errors.New("workload panicked")

// PanicError is a recovered workload panic. Its message carries the panic
// value and the stack, so a sweep or CLI that reports a failed point shows
// where it broke; a server sends its clients Summary instead.
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string { return fmt.Sprintf("%s\n\n%s", e.Summary(), e.Stack) }

// Summary is the message without the stack: it names the panic value only.
func (e *PanicError) Summary() string { return fmt.Sprintf("%v: %v", ErrPanic, e.Value) }

// Unwrap makes errors.Is(err, ErrPanic) hold.
func (e *PanicError) Unwrap() error { return ErrPanic }

// RunInfo reports how one submission was served.
type RunInfo struct {
	// Cached: the cache held the result; no execution, no coalescing.
	Cached bool
	// Coalesced: an identical execution was already in flight and this
	// submission joined it instead of running its own.
	Coalesced bool
}

// Stage names the per-stage latency series a Runner observes into its
// metrics registry (job_stage_seconds{stage=...}) and the span names a
// request trace carries — one vocabulary for both views.
var Stages = []string{
	"canonicalize",
	"cache_lookup",
	"coalesce_wait",
	"execute",
	"encode",
	"store",
}

// Runner executes canonical specs: cache first, then a coalesced
// execution — concurrent submissions of the same key share one run
// (singleflight) and each decode their own copy of its result. Safe for
// concurrent use: sweeps fan specs over it from the harness/sweep
// worker pool, the serve daemon from its request workers.
type Runner struct {
	// Defaults fills the blank policy and configuration of every spec
	// this Runner resolves (see Resolve). NewRunner starts it at the
	// paper's design point; set it before the first Run.
	Defaults Defaults

	// Engine is the test-only oracle override: the instruction engine
	// the Runner's sim-backed workloads (stream, program) run on. The
	// zero value is the block engine; tests set the legacy engine to hold
	// the block engine to the oracle. It is deliberately not part of the
	// key: both engines produce the same result bytes. Set it before the
	// first Run.
	Engine sim.Engine

	// Cache, when non-nil, fronts execution. Set it before the first Run;
	// results are stored under Spec.Key in the canonical Result encoding.
	Cache *resultcache.Cache

	// Tracer, when non-nil, records every run as a span tree:
	// canonicalize, cache_lookup (with the cache's tier sub-spans),
	// coalesce_wait, execute, encode and store, parented under the span
	// passed to RunEncodedTraced — or under a fresh root per run when
	// none is (the cyclops-bench -trace-runs mode). Nil tracing costs a
	// handful of nil checks per run. Set it before the first Run.
	Tracer *obs.Tracer

	// metrics, when set by Instrument, receives per-stage and
	// per-workload latency histograms.
	metrics atomic.Pointer[instruments]

	mu       sync.Mutex
	inflight map[resultcache.Key]*call

	// chips hands every execution its chip and keeps the chips of
	// successful runs for reuse.
	chips chipPool

	hits, misses, coalesced, executions, errors atomic.Uint64
}

// instruments is what Instrument attached: the registry, and its
// latency series held by name, so that observing one allocates nothing.
type instruments struct {
	m      *obs.Metrics
	stages map[string]*obs.Histogram

	mu   sync.Mutex
	runs map[string]*obs.Histogram // by workload, registered on first use
}

// call is one in-flight execution; done closes once data/err are final.
type call struct {
	done chan struct{}
	data []byte
	err  error
}

// NewRunner returns a Runner on the paper's design point (fine-grained
// issue, arch.Default) with no cache attached.
func NewRunner() *Runner {
	return &Runner{Defaults: paperDefaults(), inflight: make(map[resultcache.Key]*call)}
}

// Resolve turns a submission into what it runs as: the canonical spec,
// blank policy and configuration filled from r.Defaults, and its
// content key. Every path that keys a spec for this Runner — run, cache
// probe, the serve handler — goes through here, so they cannot disagree
// about what a blank field means.
func (r *Runner) Resolve(spec *Spec) (*Spec, resultcache.Key, error) {
	canon, err := spec.canonicalize(r.Defaults)
	if err != nil {
		return nil, resultcache.Key{}, err
	}
	key, err := canon.Key()
	return canon, key, err
}

// Resolved is a submission resolved for one Runner: what it runs as, and
// the key its result is stored under.
type Resolved struct {
	Spec *Spec
	Key  resultcache.Key
	// ID is Key's hex form, computed once per resolution.
	ID string
}

// ResolveTraced is Resolve as a traced stage: the canonicalize span, a
// child of parent carrying the key (or the error) and observed into
// job_stage_seconds. The serve handler resolves each request here once
// and hands the result to CachedTraced and RunResolvedTraced.
func (r *Runner) ResolveTraced(spec *Spec, parent *obs.ActiveSpan) (Resolved, error) {
	csp := parent.Child("canonicalize")
	canon, key, err := r.Resolve(spec)
	if err != nil {
		csp.Attr("error", err.Error())
		r.observeStage("canonicalize", csp.End())
		return Resolved{}, err
	}
	res := Resolved{Spec: canon, Key: key, ID: key.String()}
	csp.Attr("key", res.ID)
	r.observeStage("canonicalize", csp.End())
	return res, nil
}

// Instrument registers the runner's operational series into m: the
// job_* activity counters, the attached cache's cache_* counters and
// byte gauges, the per-stage job_stage_seconds histograms (one per
// Stages entry, pre-registered so a fresh daemon exports them at zero)
// and the per-workload run_seconds histograms (registered lazily as
// workloads appear). A nil Tracer is replaced with a fresh one — stage
// timings come from span durations, so instrumenting implies tracing.
// Call once, after attaching the cache and before the first run.
func (r *Runner) Instrument(m *obs.Metrics) {
	if r.Tracer == nil {
		r.Tracer = obs.NewTracer(0)
	}
	stat := func(read func(Stats) uint64) func() uint64 {
		return func() uint64 { return read(r.Stats()) }
	}
	m.Func("job_hits", stat(func(st Stats) uint64 { return st.Hits }))
	m.Func("job_misses", stat(func(st Stats) uint64 { return st.Misses }))
	m.Func("job_coalesced", stat(func(st Stats) uint64 { return st.Coalesced }))
	m.Func("job_executions", stat(func(st Stats) uint64 { return st.Executions }))
	m.Func("job_errors", stat(func(st Stats) uint64 { return st.Errors }))
	m.Func("job_inflight", func() uint64 { return uint64(r.Inflight()) })
	if c := r.Cache; c != nil {
		cstat := func(read func(resultcache.Counters) uint64) func() uint64 {
			return func() uint64 { return read(c.Stats()) }
		}
		m.Func("cache_mem_hits", cstat(func(ct resultcache.Counters) uint64 { return ct.MemHits }))
		m.Func("cache_disk_hits", cstat(func(ct resultcache.Counters) uint64 { return ct.DiskHits }))
		m.Func("cache_misses", cstat(func(ct resultcache.Counters) uint64 { return ct.Misses }))
		m.Func("cache_corrupt", cstat(func(ct resultcache.Counters) uint64 { return ct.Corrupt }))
		m.Func("cache_evictions", cstat(func(ct resultcache.Counters) uint64 { return ct.Evictions }))
		m.Func("cache_puts", cstat(func(ct resultcache.Counters) uint64 { return ct.Puts }))
		m.Func("cache_mem_bytes", func() uint64 { return uint64(c.MemBytes()) })
		m.Func("cache_disk_bytes", c.DiskBytes)
	}
	in := &instruments{m: m, stages: make(map[string]*obs.Histogram, len(Stages)), runs: make(map[string]*obs.Histogram)}
	for _, stage := range Stages {
		in.stages[stage] = m.Histogram("job_stage_seconds", "stage", stage)
	}
	r.metrics.Store(in)
}

// observeStage feeds one finished stage span into its latency series.
func (r *Runner) observeStage(stage string, sp obs.Span) {
	if in := r.metrics.Load(); in != nil {
		in.stages[stage].Observe(sp.Dur)
	}
}

// observeRun feeds one whole submission (hit or miss alike) into the
// per-workload run_seconds series.
func (r *Runner) observeRun(workload string, d time.Duration) {
	if in := r.metrics.Load(); in != nil {
		in.mu.Lock()
		h := in.runs[workload]
		if h == nil {
			h = in.m.Histogram("run_seconds", "workload", workload)
			in.runs[workload] = h
		}
		in.mu.Unlock()
		h.Observe(d)
	}
}

// Run executes one spec and returns its decoded result. Every return
// path decodes the canonical encoding — cache hit, coalesced join, or
// fresh execution — so equal specs yield byte-identical encoded results
// no matter which path served them.
//
// Run never calls into the sweep pool itself, so it is safe to call from
// inside a sweep.Map worker (the harness experiments do exactly that).
func (r *Runner) Run(spec *Spec) (*Result, error) {
	data, _, err := r.RunEncodedTraced(spec, nil)
	if err != nil {
		return nil, err
	}
	return DecodeResult(data)
}

// RunEncodedTraced is Run without the final decode, with tracing and
// full serving info: it returns the canonical encoded result — the exact
// bytes the cache stores and the serve daemon ships; callers must not
// mutate the slice — every stage becomes a child span of parent (see
// Tracer), and the returned RunInfo says whether the cache or a
// coalesced execution served the bytes. With a nil parent and a non-nil
// Tracer each run roots its own trace.
func (r *Runner) RunEncodedTraced(spec *Spec, parent *obs.ActiveSpan) ([]byte, RunInfo, error) {
	return r.run(spec, nil, parent)
}

// RunResolvedTraced is RunEncodedTraced for a submission already resolved
// by ResolveTraced: the same stages, entered after canonicalize.
func (r *Runner) RunResolvedTraced(res *Resolved, parent *obs.ActiveSpan) ([]byte, RunInfo, error) {
	return r.run(res.Spec, res, parent)
}

// run is the body of RunEncodedTraced and RunResolvedTraced; res is nil
// until spec is resolved.
func (r *Runner) run(spec *Spec, res *Resolved, parent *obs.ActiveSpan) ([]byte, RunInfo, error) {
	var info RunInfo
	root := parent
	ownRoot := root == nil && r.Tracer != nil
	if ownRoot {
		root = r.Tracer.StartTrace("run")
	}
	var started time.Time
	if r.metrics.Load() != nil {
		started = r.Tracer.Now()
	}
	data, err := r.runTraced(spec, res, root, &info)
	if ownRoot {
		root.Attr("workload", spec.Workload)
		root.Attr("cached", fmt.Sprintf("%t", info.Cached))
		root.End()
	}
	if !started.IsZero() {
		r.observeRun(spec.Workload, r.Tracer.Now().Sub(started))
	}
	return data, info, err
}

// runTraced is the staged body of run: canonicalize (unless res is
// already resolved), then cache lookup, coalesce or execute, encode and
// store.
func (r *Runner) runTraced(spec *Spec, res *Resolved, root *obs.ActiveSpan, info *RunInfo) ([]byte, error) {
	if res == nil {
		resolved, err := r.ResolveTraced(spec, root)
		if err != nil {
			return nil, err
		}
		res = &resolved
	}
	canon, key := res.Spec, res.Key

	if r.Cache != nil {
		if data, ok := r.lookup(key, root); ok {
			info.Cached = true
			return data, nil
		}
	}
	r.misses.Add(1)

	r.mu.Lock()
	if c, ok := r.inflight[key]; ok {
		r.mu.Unlock()
		r.coalesced.Add(1)
		info.Coalesced = true
		wsp := root.Child("coalesce_wait")
		<-c.done
		r.observeStage("coalesce_wait", wsp.End())
		return c.data, c.err
	}
	c := &call{done: make(chan struct{})}
	r.inflight[key] = c
	r.mu.Unlock()

	esp := root.Child("execute").Attr("workload", canon.Workload)
	result, err := r.execute(canon)
	r.observeStage("execute", esp.End())
	if err != nil {
		c.err = err
	} else {
		nsp := root.Child("encode")
		c.data, c.err = EncodeResult(result)
		r.observeStage("encode", nsp.End())
	}
	if c.err == nil && r.Cache != nil {
		// A failed store (full disk) must not fail the run; the result
		// is in hand and the next identical spec simply re-executes.
		ssp := root.Child("store")
		_ = r.Cache.PutTraced(key, c.data, ssp)
		r.observeStage("store", ssp.End())
	}
	r.mu.Lock()
	delete(r.inflight, key)
	r.mu.Unlock()
	close(c.done)

	return c.data, c.err
}

// Cached returns the canonical encoded result the attached cache holds
// under key, if any and if it decodes, with the cache's tier spans under
// sp (nil records nothing). It counts nothing. It is the one
// decode-checked read of the cache: the cache_lookup stage and GET
// /v1/result both read through it, so the endpoint serves exactly the
// entries a run would take as hits.
func (r *Runner) Cached(key resultcache.Key, sp *obs.ActiveSpan) ([]byte, bool) {
	if r.Cache == nil {
		return nil, false
	}
	data, ok := r.Cache.GetTraced(key, sp)
	if !ok {
		return nil, false
	}
	// Undecodable despite the cache's integrity check: the entry
	// predates a Result schema change that forgot a SemanticsVersion
	// bump. Report a miss, so the spec re-runs.
	if _, err := DecodeResult(data); err != nil {
		return nil, false
	}
	return data, true
}

// lookup is the cache_lookup stage, a child span of parent: it returns
// what Cached does, counting a hit, and never counts a miss.
func (r *Runner) lookup(key resultcache.Key, parent *obs.ActiveSpan) ([]byte, bool) {
	lsp := parent.Child("cache_lookup")
	data, ok := r.Cached(key, lsp)
	outcome := "miss"
	if ok {
		r.hits.Add(1)
		outcome = "hit"
	}
	r.observeStage("cache_lookup", lsp.Attr("outcome", outcome).End())
	return data, ok
}

// CachedTraced returns the canonical encoded result when the cache
// already holds the resolved spec, with the lookup recorded under parent
// (and the whole probe observed into the per-workload run_seconds series
// on a hit). It never executes and never counts a miss (a subsequent run
// does), and without a cache it finds nothing — the serve daemon's
// answer-hits-without-queueing fast path.
func (r *Runner) CachedTraced(res *Resolved, parent *obs.ActiveSpan) ([]byte, bool) {
	var started time.Time
	if r.metrics.Load() != nil {
		started = r.Tracer.Now()
	}
	data, ok := r.lookup(res.Key, parent)
	if ok && !started.IsZero() {
		r.observeRun(res.Spec.Workload, r.Tracer.Now().Sub(started))
	}
	return data, ok
}

// execute performs one real run and returns the decoded result.
func (r *Runner) execute(canon *Spec) (*Result, error) {
	r.executions.Add(1)
	w, ok := LookupWorkload(canon.Workload)
	if !ok {
		return nil, fmt.Errorf("job: unknown workload %q", canon.Workload)
	}
	pol, err := canon.policy()
	if err != nil {
		return nil, err
	}
	var res *Result
	pc, err := r.chips.get(*canon.Config)
	if err == nil {
		res, err = runWorkload(w, &RunContext{Spec: canon, Chip: pc.chip, Engine: r.Engine, Policy: pol, pooled: pc})
		r.chips.put(pc, err == nil)
	}
	if err != nil {
		r.errors.Add(1)
		return nil, fmt.Errorf("job: %s: %w", canon.Workload, err)
	}
	return res, nil
}

// runWorkload is w.Run with a panic recovered into a *PanicError.
func runWorkload(w Workload, ctx *RunContext) (res *Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			res, err = nil, &PanicError{Value: p, Stack: debug.Stack()}
		}
	}()
	return w.Run(ctx)
}

// Stats snapshots the counters.
func (r *Runner) Stats() Stats {
	return Stats{
		Hits:       r.hits.Load(),
		Misses:     r.misses.Load(),
		Coalesced:  r.coalesced.Load(),
		Executions: r.executions.Load(),
		Errors:     r.errors.Load(),
		ChipsBuilt: r.chips.built.Load(),
	}
}

// Inflight reports the number of executions currently running — the
// serve metrics' view of simulator occupancy.
func (r *Runner) Inflight() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.inflight)
}
