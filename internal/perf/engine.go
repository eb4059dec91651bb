//go:build go1.23

// The constraint above is for iter.Pull, which arrived in Go 1.23: it
// raises this file's language version, because the go.mod directive has
// to stay at 1.22 (benchmark/go.mod says 1.22 and builds this module
// through a replace; with the root at 1.23 it fails with "updates to
// go.mod needed").

// Package perf is the direct-execution timing runtime: SPLASH-2-style
// kernels are written as Go functions against a thread API whose every
// operation charges the Table 2 costs through the same chip model —
// cache ports, memory banks, quad FPUs, the wired-OR barrier — that the
// instruction-level simulator in internal/sim uses.
//
// Compared to internal/sim, programs here execute natively (data lives in
// Go values) while time is simulated: loads, stores, floating-point
// operations and barriers advance a per-thread virtual clock, stall on
// dependences like an in-order single-issue Cyclops thread unit, and
// contend for shared resources. This is how the SPLASH-2 evaluation of
// Section 3 becomes tractable without the authors' cross-compiler; the
// timing model is identical, only the instruction stream is abstracted.
//
// # Determinism
//
// The engine is a conservative discrete-event scheduler, and the whole
// machine is one host thread of control: each simulated thread is a
// coroutine (iter.Pull over its body), not a goroutine, so exactly one
// body executes at a time by construction rather than by locking. Every
// shared-resource operation first yields to the engine, which always
// resumes the thread with the globally minimal key in the total order
// (time, tie hash of (time, unit), unit). A hand-off is a direct switch
// into that body and back — no channel, no wake-up, nothing for the Go
// scheduler to place — so state observed at time T is final and runs are
// bit-for-bit reproducible whatever GOMAXPROCS is. Run unwinds every
// coroutine it started before it returns, on success, deadlock, the cycle
// limit or a panicking body alike.
//
// # Bulk operations
//
// LoadBlock, StoreBlock, LoadGather, StoreScatter and FPBlock reserve up to
// bulkChunk (32) operations under a single scheduling point: other threads
// cannot interleave inside a chunk, a quantum-style approximation that
// bounds engine overhead. They are the only implementation of each kind of
// operation: a single load, store or FP operation (LoadF64, StoreU32,
// FMA, ...) and a software-barrier flag poll are chunks of one, and
// Atomic, which the memory system has no run form for, is the one
// single-access call left. The four memory operations time a chunk as one
// run: one call into the cache system's run core (cache.System.LoadRun,
// StoreRun, LoadGather, StoreScatter), which resolves placement, probes
// the tag and finds the DRAM bank once per line rather than per access,
// and one booking of the run's summary in the thread's ledger
// (timing.Ledger.SettleRun). A run leaves the chip and the ledger exactly
// where the same accesses made one at a time would (internal/cache's
// FuzzAccessRun holds it to that), so the run is a host-speed device, not
// a model change. A thread with a profiler attached issues its chunks as
// runs of one, so its sampler sees every access's charges in issue order;
// SchedStats counts the runs and the accesses they covered.
package perf

import (
	"fmt"
	"iter"
	"runtime/debug"

	"cyclops/internal/arch"
	"cyclops/internal/core"
	"cyclops/internal/obs"
	"cyclops/internal/prof"
	"cyclops/internal/timing"
)

// Machine owns the engine and the chip being timed.
type Machine struct {
	Chip *core.Chip

	threads []*T
	pq      eventQueue
	stats   SchedStats
	running bool
	// failed is the first thread body's panic, as the error Run returns.
	failed error
	// onResume, when set, sees every hand-off before it happens; only
	// the hand-off order test sets it.
	onResume func(at uint64, unit int)

	// brk is the bump allocator cursor for Alloc.
	brk uint32
	// allocLimit keeps allocations below the region the ISA kernel would
	// use for stacks, for symmetry with internal/kernel.
	allocLimit uint32

	// Balanced selects the balanced thread-placement policy (deal
	// spawned threads across quads) instead of sequential quad filling.
	Balanced bool

	// MaxCycles bounds Run by sim.Machine.MaxCycles's rule (0 means no
	// limit): the run fails, wrapping timing.ErrCycleLimit, at the first
	// resume it pops past the limit.
	MaxCycles uint64

	// Prof and TL are the attached guest profiler and telemetry
	// timeline (see AttachProfile / AttachTimeline); nil means off.
	// The direct-execution engine has no instruction stream, so
	// profiler "PCs" are synthetic region ids from Regions, annotated
	// by kernels via T.Region.
	Prof    *prof.Profile
	Regions *prof.RegionTable
	TL      *prof.Timeline

	// pol is the issue policy; polTab its compiled trigger table,
	// installed into each thread's ledger at Spawn.
	pol    timing.Policy
	polTab timing.PolicyTable

	// order is the placement order of the usable worker units, built at
	// the first Spawn; nextTid indexes it.
	order   []int
	nextTid int
}

// New builds a runtime machine over a chip, on the fine-grained issue
// policy until SetPolicy selects another.
func New(chip *core.Chip) *Machine {
	m := &Machine{
		Chip:       chip,
		brk:        0x1000,
		allocLimit: chip.Mem.Size() - uint32(chip.Cfg.Threads*(8<<10)),
	}
	m.SetPolicy(nil)
	return m
}

// SetPolicy selects the issue policy — fine-grained, blocked, or
// switch-on-miss — honored by every thread's ledger through the shared
// charge rules. Call before Run; threads spawned earlier are re-wired
// retroactively, like AttachProfile.
func (m *Machine) SetPolicy(p timing.Policy) {
	if m.running {
		panic("perf: SetPolicy after Run")
	}
	if p == nil {
		p = timing.FineGrain{}
	}
	m.pol = p
	m.polTab = p.Table()
	for _, t := range m.threads {
		t.Pol = m.polTab
	}
}

// Policy reports the machine's selected issue policy.
func (m *Machine) Policy() timing.Policy { return m.pol }

// NewDefault builds a machine on a fresh default chip.
func NewDefault() *Machine {
	return New(core.MustNew(arch.Default()))
}

// Alloc reserves n bytes of simulated memory, 64-byte aligned, addressed
// through interest group g. The data itself lives in Go values; the
// returned effective address drives cache and bank timing. A size that
// does not fit, however large or negative, is an error.
func (m *Machine) Alloc(n int, g arch.InterestGroup) (uint32, error) {
	base := (m.brk + 63) &^ 63
	if n < 0 || uint64(base)+uint64(n) > uint64(m.allocLimit) {
		return 0, fmt.Errorf("perf: allocation of %d bytes exceeds embedded memory (brk %#x, limit %#x)", n, base, m.allocLimit)
	}
	m.brk = base + uint32(n)
	return arch.EA(g, base), nil
}

// MustAlloc is Alloc for sizes known to fit.
func (m *Machine) MustAlloc(n int, g arch.InterestGroup) uint32 {
	ea, err := m.Alloc(n, g)
	if err != nil {
		panic(err)
	}
	return ea
}

// SharedAlloc allocates in the chip-wide shared interest group, the
// system-software default placement.
func (m *Machine) SharedAlloc(n int) uint32 {
	return m.MustAlloc(n, arch.InterestGroup{Mode: arch.GroupAll})
}

// msgKind discriminates what a thread yields to the engine. A body that
// returns yields nothing: its coroutine simply ends.
type msgKind uint8

const (
	// msgYield: the thread wants to continue at msg.at.
	msgYield msgKind = iota
	// msgBlock: the thread parked on a synchronisation object; a peer
	// will wake it by listing it in its own wakes.
	msgBlock
)

type msg struct {
	kind msgKind
	at   uint64
}

// Spawn registers a simulated thread that will run fn when Run is called.
// Threads are placed on hardware units in allocation-policy order; the
// reserved system units are skipped as in the resident kernel.
func (m *Machine) Spawn(fn func(t *T)) (*T, error) {
	if m.running {
		return nil, fmt.Errorf("perf: Spawn after Run")
	}
	tid, err := m.placeThread()
	if err != nil {
		return nil, err
	}
	t := &T{
		m:    m,
		ID:   tid,
		Quad: m.Chip.Cfg.QuadOf(tid),
		fn:   fn,
	}
	t.Pol = m.polTab
	if m.Prof != nil {
		t.Samp = m.Prof.Sampler(tid)
	}
	m.threads = append(m.threads, t)
	return t, nil
}

// AttachProfile wires a guest profiler: every thread's ledger forwards
// its charges to a per-unit sampler, and Regions provides the synthetic
// PC space for T.Region annotations. Call before Run (threads spawned
// earlier are wired retroactively).
func (m *Machine) AttachProfile(p *prof.Profile) {
	m.Prof = p
	if m.Regions == nil {
		m.Regions = prof.NewRegionTable()
	}
	for _, t := range m.threads {
		t.Samp = p.Sampler(t.ID)
	}
}

// AttachTimeline wires an interval telemetry timeline sampled on the
// engine's virtual clock. Call before Run.
func (m *Machine) AttachTimeline(t *prof.Timeline) {
	m.TL = t
}

// counters gathers the chip-wide telemetry the timeline samples. Only
// called from the engine loop, between hand-offs.
func (m *Machine) counters() prof.Counters {
	return m.Totals().Counters(m.Chip.ResourceStats())
}

// SpawnN spawns n threads running fn(t, index); index runs 0..n-1.
func (m *Machine) SpawnN(n int, fn func(t *T, index int)) error {
	for i := 0; i < n; i++ {
		idx := i
		if _, err := m.Spawn(func(t *T) { fn(t, idx) }); err != nil {
			return err
		}
	}
	return nil
}

// placeThread returns the hardware unit for the next spawned thread.
func (m *Machine) placeThread() (int, error) {
	if m.order == nil {
		m.order = m.Chip.WorkerOrder(m.Balanced)
	}
	if m.nextTid >= len(m.order) {
		return 0, fmt.Errorf("perf: no free thread units (have %d)", len(m.order))
	}
	tid := m.order[m.nextTid]
	m.nextTid++
	return tid, nil
}

// event is a queued resume: thread t continues at cycle at. h is the tie
// hash of (at, t.ID), computed once when the event is pushed.
type event struct {
	at uint64
	h  uint32
	t  *T
}

// before is the engine's total order: by time; ties break by a
// deterministic hash of (time, id) rather than the id itself, so no thread
// systematically wins simultaneous resource races — the engine's analogue
// of the hardware's rotating round-robin priority (Section 2). A thread is
// queued at most once, so no two queued events compare equal, and any
// correct priority queue pops the same sequence.
func (a event) before(b event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.h != b.h {
		return a.h < b.h
	}
	return a.t.ID < b.t.ID
}

func tieHash(at uint64, id int) uint32 {
	h := uint32(at)*2654435761 ^ uint32(id)*0x9e3779b9
	h ^= h >> 15
	return h * 0x85ebca6b
}

// eventQueue is a binary min-heap of events under before, typed so that
// neither push nor pop allocates once the slice has grown to the thread
// count.
type eventQueue []event

func (q *eventQueue) push(at uint64, t *T) {
	e := event{at: at, h: tieHash(at, t.ID), t: t}
	h := append(*q, e)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !e.before(h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = e
	*q = h
}

// pop removes and returns the minimum; the queue must not be empty.
func (q *eventQueue) pop() event {
	h := *q
	top := h[0]
	n := len(h) - 1
	e := h[n]
	h = h[:n]
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && h[c+1].before(h[c]) {
			c++
		}
		if !h[c].before(e) {
			break
		}
		h[i] = h[c]
		i = c
	}
	if n > 0 {
		h[i] = e
	}
	*q = h
	return top
}

// SchedStats counts the engine's host-side activity over the last Run.
// Like sim.Machine.SchedStats it describes what the simulator did, not
// the chip, and is kept out of obs.Snapshot and every golden.
type SchedStats struct {
	Resumes  uint64 // hand-offs: events popped, each one switch into a thread body
	Pushes   uint64 // events queued: initial starts, yields and barrier wake-ups
	Wakes    uint64 // of those, threads a barrier release unparked
	MaxDepth int    // most events queued at once
	// Runs counts the calls into the memory system's run core — every
	// load and store, single ones and software-barrier flag polls
	// included, since each is a run — and RunAccesses the accesses they
	// covered: their ratio is the mean run length (at most bulkChunk; one
	// for a profiled thread). Atomics are not runs.
	Runs, RunAccesses uint64
}

// SchedStats reports the engine's host-side activity (see the type).
func (m *Machine) SchedStats() SchedStats { return m.stats }

// schedule queues t to continue at cycle at.
func (m *Machine) schedule(at uint64, t *T) {
	m.pq.push(at, t)
	m.stats.Pushes++
	if n := len(m.pq); n > m.stats.MaxDepth {
		m.stats.MaxDepth = n
	}
}

// stopped is the panic value that unwinds a thread body whose coroutine
// was stopped mid-run; T.coro recovers it.
type stopped struct{}

// coro is the thread's coroutine: the body, with every scheduling point a
// yield to the engine. It never lets a panic out: being stopped ends it
// quietly, anything else is recorded for Run to return, with the stack
// of the body that raised it.
func (t *T) coro(yield func(msg) bool) {
	t.yield = yield
	defer func() {
		r := recover()
		if _, ok := r.(stopped); r == nil || ok {
			return
		}
		if t.m.failed == nil {
			t.m.failed = fmt.Errorf("perf: thread on unit %d panicked: %v\n\n%s", t.ID, r, debug.Stack())
		}
	}()
	t.fn(t)
}

// Run executes every spawned thread to completion. It returns an error on
// deadlock (threads blocked with no runnable peer), past MaxCycles and
// when a thread body panics; in each case the threads still suspended are
// unwound first, their deferred calls run, and no coroutine outlives the
// call.
func (m *Machine) Run() error {
	if len(m.threads) == 0 {
		return fmt.Errorf("perf: no threads spawned")
	}
	m.running = true
	defer func() { m.running = false }()
	m.pq, m.stats, m.failed = m.pq[:0], SchedStats{}, nil
	limit := timing.Limit(m.MaxCycles)
	for _, t := range m.threads {
		t.next, t.stop = iter.Pull(t.coro)
		m.schedule(0, t)
	}
	// Deferred, so that a runtime.Goexit from a body (a test's t.Fatal),
	// which iter.Pull re-raises in next, also leaves nothing behind.
	defer func() {
		for _, t := range m.threads {
			t.stop()
		}
	}()
	live := len(m.threads)
	for live > 0 {
		if len(m.pq) == 0 {
			return fmt.Errorf("perf: deadlock: %d threads blocked on synchronisation", live)
		}
		ev := m.pq.pop()
		if ev.at > limit {
			break // with threads live: the cycle limit, below
		}
		if m.TL != nil && m.TL.Due(ev.at) {
			m.TL.Tick(ev.at, m.counters())
		}
		if m.onResume != nil {
			m.onResume(ev.at, ev.t.ID)
		}
		t := ev.t
		m.stats.Resumes++
		mg, ok := t.next()
		// Only t ran, so the threads it released are on its own list.
		for _, w := range t.wakes {
			m.schedule(w.now, w)
		}
		m.stats.Wakes += uint64(len(t.wakes))
		t.wakes = t.wakes[:0]
		switch {
		case !ok:
			if m.failed != nil {
				return m.failed
			}
			live--
		case mg.kind == msgYield:
			m.schedule(mg.at, t)
		default:
			// msgBlock: parked until a peer's wakes requeue it.
		}
	}
	if live > 0 {
		return fmt.Errorf("perf: %w %d exceeded", timing.ErrCycleLimit, m.MaxCycles)
	}
	if m.TL != nil {
		m.TL.Finish(m.Elapsed(), m.counters())
	}
	return nil
}

// Elapsed returns the latest virtual time reached by any thread.
func (m *Machine) Elapsed() uint64 {
	var max uint64
	for _, t := range m.threads {
		if t.now > max {
			max = t.now
		}
	}
	return max
}

// Threads returns the spawned threads for stats inspection.
func (m *Machine) Threads() []*T { return m.threads }

// Totals sums every thread's ledger (the Figure 7 aggregates).
func (m *Machine) Totals() timing.Totals {
	var s timing.Totals
	for _, t := range m.threads {
		s.Add(&t.Ledger)
	}
	return s
}

// Snapshot captures the run's cycle accounting and resource telemetry in
// the deterministic export form. The direct-execution engine abstracts
// the instruction stream, so per-thread Insts stays zero.
func (m *Machine) Snapshot() *obs.Snapshot {
	s := &obs.Snapshot{Cycles: m.Elapsed(), Resources: m.Chip.ResourceStats()}
	if len(m.threads) > 0 {
		s.Threads = make([]obs.ThreadStat, 0, len(m.threads))
	}
	for _, t := range m.threads {
		s.Threads = append(s.Threads, t.ThreadStat(t.ID, t.Quad, 0))
	}
	s.Finish()
	return s
}
