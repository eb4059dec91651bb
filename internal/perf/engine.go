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
// The engine is a conservative discrete-event scheduler: simulated
// threads run as goroutines, but exactly one executes at a time and
// every shared-resource operation first yields to the engine, which
// always resumes the thread with the globally minimal (time, id) key.
// State observed at time T is therefore final, and runs are bit-for-bit
// reproducible.
//
// Bulk operations (LoadBlock, StoreBlock, FPBlock) reserve several
// accesses under a single scheduling point. Within one bulk call other
// threads cannot interleave, a quantum-style approximation that bounds
// engine overhead; keep blocks at or below a few cache lines.
package perf

import (
	"container/heap"
	"fmt"

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
	msgs    chan msg
	pq      eventQueue
	running bool

	// brk is the bump allocator cursor for Alloc.
	brk uint32
	// allocLimit keeps allocations below the region the ISA kernel would
	// use for stacks, for symmetry with internal/kernel.
	allocLimit uint32

	// Balanced selects the balanced thread-placement policy (deal
	// spawned threads across quads) instead of sequential quad filling.
	Balanced bool

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

	nextTid int
}

// New builds a runtime machine over a chip, on the fine-grained issue
// policy until SetPolicy selects another.
func New(chip *core.Chip) *Machine {
	m := &Machine{
		Chip:       chip,
		msgs:       make(chan msg),
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
// returned effective address drives cache and bank timing.
func (m *Machine) Alloc(n int, g arch.InterestGroup) (uint32, error) {
	base := (m.brk + 63) &^ 63
	if base+uint32(n) > m.allocLimit {
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

// msgKind discriminates thread-to-engine messages.
type msgKind uint8

const (
	// msgYield: the thread wants to continue at msg.at.
	msgYield msgKind = iota
	// msgDone: the thread body returned.
	msgDone
	// msgBlock: the thread parked on a synchronisation object; a peer
	// will wake it by carrying an event in a later message.
	msgBlock
)

type msg struct {
	t    *T
	kind msgKind
	at   uint64
	// wakes carries threads the sender unparked (barrier releases).
	wakes []event
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
		m:      m,
		ID:     tid,
		Quad:   m.Chip.Cfg.QuadOf(tid),
		fn:     fn,
		resume: make(chan struct{}),
	}
	t.Pol = m.polTab
	if obs.Enabled && m.Prof != nil {
		t.Samp = m.Prof.Sampler(tid)
	}
	m.threads = append(m.threads, t)
	return t, nil
}

// AttachProfile wires a guest profiler: every thread's ledger forwards
// its charges to a per-unit sampler, and Regions provides the synthetic
// PC space for T.Region annotations. Call before Run (threads spawned
// earlier are wired retroactively); a no-op under cyclops_noobs.
func (m *Machine) AttachProfile(p *prof.Profile) {
	if !obs.Enabled {
		return
	}
	m.Prof = p
	if m.Regions == nil {
		m.Regions = prof.NewRegionTable()
	}
	for _, t := range m.threads {
		t.Samp = p.Sampler(t.ID)
	}
}

// AttachTimeline wires an interval telemetry timeline sampled on the
// engine's virtual clock. Call before Run; a no-op under cyclops_noobs.
func (m *Machine) AttachTimeline(t *prof.Timeline) {
	if !obs.Enabled {
		return
	}
	m.TL = t
}

// counters gathers the chip-wide telemetry the timeline samples. Only
// called from the engine loop while every thread is parked, so the
// ledger reads are race-free.
func (m *Machine) counters() prof.Counters {
	var c prof.Counters
	for _, t := range m.threads {
		c.Run += t.Run
		c.Stall += t.Stall
		c.Stalls.AddAll(t.Stalls)
		c.MemWaits.AddAll(t.MemWaits)
	}
	for _, r := range m.Chip.ResourceStats() {
		switch r.Kind {
		case "cacheport":
			c.PortBusy += r.Busy
		case "drambank":
			c.BankBusy += r.Busy
		case "fpu":
			c.FPUBusy += r.Busy
		}
	}
	return c
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
	cfg := m.Chip.Cfg
	order := make([]int, 0, cfg.Threads)
	if m.Balanced {
		for slot := 0; slot < cfg.ThreadsPerQuad; slot++ {
			for q := 0; q < cfg.Quads(); q++ {
				tid := q*cfg.ThreadsPerQuad + slot
				if tid >= cfg.ReservedThreads && m.Chip.ThreadUsable(tid) {
					order = append(order, tid)
				}
			}
		}
	} else {
		for tid := cfg.ReservedThreads; tid < cfg.Threads; tid++ {
			if m.Chip.ThreadUsable(tid) {
				order = append(order, tid)
			}
		}
	}
	if m.nextTid >= len(order) {
		return 0, fmt.Errorf("perf: no free thread units (have %d)", len(order))
	}
	tid := order[m.nextTid]
	m.nextTid++
	return tid, nil
}

// event queue: min-heap on (time, thread id).
type event struct {
	at uint64
	t  *T
}

type eventQueue []event

func (q eventQueue) Len() int { return len(q) }

// Less orders by time; ties break by a deterministic hash of (time, id)
// rather than the id itself, so no thread systematically wins simultaneous
// resource races — the engine's analogue of the hardware's rotating
// round-robin priority (Section 2).
func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	hi := tieHash(q[i].at, q[i].t.ID)
	hj := tieHash(q[j].at, q[j].t.ID)
	if hi != hj {
		return hi < hj
	}
	return q[i].t.ID < q[j].t.ID
}

func tieHash(at uint64, id int) uint32 {
	h := uint32(at)*2654435761 ^ uint32(id)*0x9e3779b9
	h ^= h >> 15
	return h * 0x85ebca6b
}
func (q eventQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x interface{}) { *q = append(*q, x.(event)) }
func (q *eventQueue) Pop() interface{} {
	old := *q
	n := len(old)
	e := old[n-1]
	*q = old[:n-1]
	return e
}

// Run executes every spawned thread to completion. It returns an error on
// deadlock (threads blocked with no runnable peer).
func (m *Machine) Run() error {
	if len(m.threads) == 0 {
		return fmt.Errorf("perf: no threads spawned")
	}
	m.running = true
	defer func() { m.running = false }()
	live := len(m.threads)
	for _, t := range m.threads {
		tt := t
		heap.Push(&m.pq, event{at: 0, t: tt})
		go func() {
			<-tt.resume
			tt.fn(tt)
			m.send(tt, msgDone, 0)
		}()
	}
	for live > 0 {
		if m.pq.Len() == 0 {
			return fmt.Errorf("perf: deadlock: %d threads blocked on synchronisation", live)
		}
		ev := heap.Pop(&m.pq).(event)
		if m.TL != nil && m.TL.Due(ev.at) {
			m.TL.Tick(ev.at, m.counters())
		}
		ev.t.resume <- struct{}{}
		mg := <-m.msgs
		for _, w := range mg.wakes {
			heap.Push(&m.pq, w)
		}
		switch mg.kind {
		case msgYield:
			heap.Push(&m.pq, event{at: mg.at, t: mg.t})
		case msgDone:
			live--
		case msgBlock:
			// Parked: a peer's wakes will requeue it.
		}
	}
	if m.TL != nil {
		m.TL.Finish(m.Elapsed(), m.counters())
	}
	return nil
}

// send delivers a message to the engine, attaching any pending wakes.
func (m *Machine) send(t *T, kind msgKind, at uint64) {
	wakes := t.wakes
	t.wakes = nil
	m.msgs <- msg{t: t, kind: kind, at: at, wakes: wakes}
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

// TotalRunStall sums run and stall cycles over all threads (the Figure 7
// aggregates).
func (m *Machine) TotalRunStall() (run, stall uint64) {
	for _, t := range m.threads {
		run += t.Run
		stall += t.Stall
	}
	return run, stall
}

// TotalBreakdown sums the per-reason stall buckets over all threads.
func (m *Machine) TotalBreakdown() obs.Breakdown {
	var b obs.Breakdown
	for _, t := range m.threads {
		b.AddAll(t.Stalls)
	}
	return b
}

// TotalMemWaits sums the memory-wait attribution over all threads.
func (m *Machine) TotalMemWaits() obs.MemWaits {
	var w obs.MemWaits
	for _, t := range m.threads {
		w.AddAll(t.MemWaits)
	}
	return w
}

// Snapshot captures the run's cycle accounting and resource telemetry in
// the deterministic export form. The direct-execution engine abstracts
// the instruction stream, so per-thread Insts stays zero.
func (m *Machine) Snapshot() *obs.Snapshot {
	s := &obs.Snapshot{Cycles: m.Elapsed(), Resources: m.Chip.ResourceStats()}
	for _, t := range m.threads {
		s.Threads = append(s.Threads, t.ThreadStat(t.ID, t.Quad, 0))
	}
	s.Finish()
	return s
}
