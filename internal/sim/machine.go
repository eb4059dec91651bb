// Package sim is the architecturally accurate instruction-level simulator
// of the Cyclops chip (Section 3.1 of the paper): it executes Cyclops
// instructions, modeling resource contention between instructions — the
// quad-shared FPU pipes, the cache ports, the memory banks — and charges
// the Table 2 execution and latency cycles.
//
// Each thread unit is a simple single-issue in-order processor with a
// register scoreboard: an instruction issues when its source operands are
// ready and its shared resource is granted; completion may be out of
// order. If two threads contend for a shared resource in the same cycle,
// the winner rotates round-robin to prevent starvation (Section 2).
//
// Two engines run the same model (engine.go): the legacy interpreter, the
// oracle, and the block engine, which compiles basic blocks into closures
// (block.go) under a timing-wheel scheduler (sched.go) and parks units
// spinning on an unchanged hardware-barrier register off that wheel,
// replaying them exactly when something they could observe changes
// (park.go). Every simulated number is identical on both.
package sim

import (
	"fmt"

	"cyclops/internal/barrier"
	"cyclops/internal/core"
	"cyclops/internal/isa"
	"cyclops/internal/mem"
	"cyclops/internal/obs"
	"cyclops/internal/prof"
	"cyclops/internal/timing"
)

// State is a thread unit's scheduling state.
type State uint8

const (
	// Idle: the unit has not been started.
	Idle State = iota
	// Running: the unit is executing instructions.
	Running
	// Halted: the unit executed halt (or its software thread exited).
	Halted
)

// TU is one thread unit: 64 single-precision registers (pairable for
// double precision), a program counter and a sequencer.
type TU struct {
	ID   int
	Quad int

	Regs  [64]uint32
	PC    uint32
	State State

	// ready[r] is the cycle at which register r's value is available.
	ready [64]uint64
	// nextAt is the next cycle the unit will attempt to issue.
	nextAt uint64

	pib pibState

	// pos is the unit's index in the machine's active list, and its bit
	// in the event queue's per-cycle bitmaps (see sched.go). listed is
	// whether the unit is on that list at all: from Start until the
	// compaction after its halt, which is later than State says.
	pos    int
	listed bool
	// parked: the unit waits in a spin loop off the event queue (park.go).
	// spinFails counts the failed fixed-point checks in a row since the
	// unit entered its block, and spinSkip the loop heads it skips before
	// the next one.
	parked              bool
	spinFails, spinSkip uint8
	// icache indexes the unit's quad pair's instruction cache in
	// Chip.ICaches.
	icache int32
	// blk hints the unit's current compiled block (block engine only).
	blk *simBlock

	// Ledger is the unit's cycle account (the Figure 7 run/stall totals,
	// per-reason buckets and memory-wait attribution). The charge rules
	// live in internal/timing, shared with the direct-execution runtime;
	// its Run/Stall/Stalls/MemWaits fields are promoted into TU.
	timing.Ledger
	// StartCycle and EndCycle bound the unit's active lifetime.
	StartCycle, EndCycle uint64
	// Insts counts issued instructions.
	Insts uint64
}

// pibState wraps the per-thread prefetch instruction buffer.
type pibState struct {
	base  uint32
	words uint32
}

const pibEmpty = ^uint32(0)

func (p *pibState) contains(addr uint32) bool {
	return p.base != pibEmpty && addr >= p.base && addr < p.base+p.words
}

// FRegOK reports whether r can name a double-precision pair.
func FRegOK(r uint8) bool { return r%2 == 0 && r < 63 }

// Syscaller handles syscall instructions. The kernel package implements
// it; sim stays independent of kernel policy.
type Syscaller interface {
	// Syscall is invoked when tu executes a syscall instruction at
	// m.Cycle(). The handler may read and write tu's registers and the
	// machine's memory, start threads, or halt tu.
	Syscall(m *Machine, tu *TU) SysResult
}

// SysResult tells the engine how to resume after a syscall.
type SysResult struct {
	// Cost is the cycles the syscall occupies the thread (min 1).
	Cost uint64
	// Retry re-executes the same syscall after Cost cycles without
	// advancing the PC (used for blocking calls such as join).
	Retry bool
	// Halt stops the thread.
	Halt bool
}

// Machine drives a chip cycle by cycle.
type Machine struct {
	Chip *core.Chip
	// tus[tid] is thread unit tid, nil until Unit first builds it (see
	// Unit): the engine reaches units through the active list only.
	tus    []*TU
	Kernel Syscaller

	cycle  uint64
	active []*TU
	rr     int

	// mem and bar are Chip.Mem and Chip.Barrier, typed in this package:
	// the compiler inlines methods only of packages a package imports, so
	// reaching them through core.Chip would leave CodeGen, Read64 and the
	// barrier's Read/Write as real calls in every op body.
	mem *mem.Memory
	bar *barrier.Wired

	// Event-driven scheduler state (block engine): eq holds running units
	// by their next issue cycle; batch is the reused buffer of units due
	// at the current cycle, in issue order.
	eq    eventQueue
	batch []*TU

	// Spin parking (park.go). park holds the parked units' records,
	// allocated by the first spin loop a unit reaches, and parked counts
	// them. iterN is len(active) when the current scheduler iteration
	// began and repeatAt its cycle when an earlier iteration ran at that
	// cycle too (noEvent otherwise); with rr they order a woken unit
	// against the unit that woke it. joiners are woken units still to
	// issue in the current batch; issuing is the unit whose generic op runs
	// (the writer of a syscall's WriteBarrier). onWake, set by tests,
	// observes each wake. inlineMax is the last cycle inline continuation
	// may reach without a second look: limit while no unit is parked, 0
	// while some are, so one compare guards both cases.
	park      *parking
	parked    int
	inlineMax uint64
	iterN     int
	repeatAt  uint64
	joiners   []*TU
	issuing   *TU
	onWake    func(why wakeReason, before, after int)

	// Compiled-block cache (see block.go), keyed by entry PC; codeGen is
	// the memory code generation it was compiled under (see decode.go).
	// generic counts, by opcode, the issue attempts that took the generic
	// closure rather than a specialized body (see GenericStats).
	blocks        map[uint32]*simBlock
	codeGen       uint64
	blockCompiles uint64
	blockFlushes  uint64
	generic       [isa.NumOps]uint64

	// engine selects the execution engine tier (see engine.go). Both
	// tiers are cycle- and byte-identical; they differ in host cost.
	engine Engine

	// pol is the issue policy (see policy.go).
	pol Policy

	// MaxCycles aborts runaway programs; 0 means no limit.
	MaxCycles uint64

	// Trace, when non-nil, records every issued instruction (see
	// TraceBuffer); it costs a few percent of simulation speed.
	Trace *TraceBuffer

	// Prof and TL are the attached guest profiler and telemetry
	// timeline (see AttachProfile / AttachTimeline); nil means off.
	Prof *prof.Profile
	TL   *prof.Timeline

	trap error

	// limit is MaxCycles resolved by Run (timing.Limit): the last cycle
	// the run may reach, which every limit check compares against.
	limit uint64
}

// New builds a machine over a chip, on the block engine and the
// fine-grained issue policy until SetEngine / SetPolicy select others.
// Kernel may be nil for programs that make no syscalls.
func New(chip *core.Chip, kernel Syscaller) *Machine {
	m := &Machine{Chip: chip, Kernel: kernel, mem: chip.Mem, bar: chip.Barrier,
		tus: make([]*TU, chip.Cfg.Threads), eq: newEventQueue(chip.Cfg.Threads)}
	m.SetPolicy(nil)
	return m
}

// Unit returns thread unit tid, building it on first use. A unit is about
// 1 KB of registers, scoreboard and ledger, and most runs start a few of
// the chip's units, so New builds none: Start builds the unit it starts,
// and any other first read builds the unit as it was before anything ran
// (Idle, every register and counter zero, under the machine's issue policy
// and profiler).
func (m *Machine) Unit(tid int) *TU {
	if tu := m.tus[tid]; tu != nil {
		return tu
	}
	cfg := m.Chip.Cfg
	tu := &TU{
		ID:     tid,
		Quad:   cfg.QuadOf(tid),
		pib:    pibState{base: pibEmpty, words: uint32(cfg.PIBEntries * 4)},
		icache: int32(cfg.ICacheOf(tid)),
	}
	tu.Pol = m.pol.Table()
	if m.Prof != nil {
		tu.Samp = m.Prof.Sampler(tid)
	}
	m.tus[tid] = tu
	return tu
}

// Cycle returns the current simulation cycle.
func (m *Machine) Cycle() uint64 { return m.cycle }

// AttachProfile wires a guest profiler: every thread unit's ledger
// forwards its charges to a per-unit sampler. Call before Run.
func (m *Machine) AttachProfile(p *prof.Profile) {
	m.Prof = p
	for tid, tu := range m.tus {
		// Every unit has its sampler from here on, built or not, so the
		// profile holds one per unit whichever the run starts.
		s := p.Sampler(tid)
		if tu != nil {
			tu.Samp = s
		}
	}
}

// AttachTimeline wires an interval telemetry timeline sampled on the
// machine's cycle clock. Call before Run.
func (m *Machine) AttachTimeline(t *prof.Timeline) {
	m.TL = t
}

// counters gathers the chip-wide telemetry the timeline samples.
func (m *Machine) counters() prof.Counters {
	return m.Totals().Counters(m.Chip.ResourceStats())
}

// tickTimeline samples the timeline when the clock has crossed an
// interval boundary; finishTimeline flushes the final partial interval
// when the run ends.
func (m *Machine) tickTimeline() {
	if m.TL != nil && m.TL.Due(m.cycle) {
		m.TL.Tick(m.cycle, m.counters())
	}
}

func (m *Machine) finishTimeline() {
	if m.TL != nil {
		m.TL.Finish(m.cycle, m.counters())
	}
}

// Start begins execution of thread unit tid at pc, from the current cycle.
// It returns an error if the unit is unusable (disabled quad), already
// running, or halted so recently that the engine has not yet retired it:
// a unit that halts stays on the active list until the cycle's issues are
// done, and listing it twice would issue it twice per cycle.
func (m *Machine) Start(tid int, pc uint32) error {
	if tid < 0 || tid >= len(m.tus) {
		return fmt.Errorf("sim: no thread unit %d", tid)
	}
	if !m.Chip.ThreadUsable(tid) {
		return fmt.Errorf("sim: thread unit %d is in a disabled quad", tid)
	}
	tu := m.Unit(tid)
	if tu.State == Running {
		return fmt.Errorf("sim: thread unit %d already running", tid)
	}
	if tu.listed {
		return fmt.Errorf("sim: thread unit %d halted in cycle %d and is not retired yet", tid, m.cycle)
	}
	tu.State = Running
	tu.PC = pc
	tu.nextAt = m.cycle
	tu.StartCycle = m.cycle
	tu.pib.base = pibEmpty
	tu.blk = nil // compiled before a flush that skipped the unlisted unit
	for r := range tu.ready {
		tu.ready[r] = 0
	}
	tu.pos, tu.listed = len(m.active), true
	m.active = append(m.active, tu)
	if m.engine == EngineBlock {
		m.eq.push(tu)
	}
	return nil
}

// Trap aborts the run with a diagnostic (used by the kernel for fatal
// software conditions as well as by the engine for hardware traps).
func (m *Machine) Trap(format string, args ...interface{}) {
	if m.trap == nil {
		m.trap = fmt.Errorf(format, args...)
	}
}

// Run executes until every started thread halts, a trap fires, or the
// cycle limit is hit. It returns the first trap, if any; past the limit,
// an error wrapping timing.ErrCycleLimit.
func (m *Machine) Run() error {
	m.limit = timing.Limit(m.MaxCycles)
	switch m.engine {
	case EngineBlock:
		return m.runBlock()
	case EngineLegacy:
		return m.runLegacy()
	}
	return fmt.Errorf("sim: unknown engine %v", m.engine)
}

// compact removes halted units from the active list, preserving order,
// and re-files the survivors in the event queue under their new positions.
func (m *Machine) compact() {
	live := m.active[:0]
	for _, tu := range m.active {
		if tu.State == Running {
			tu.pos = len(live)
			live = append(live, tu)
		} else {
			tu.EndCycle, tu.listed = m.cycle, false
		}
	}
	m.active = live
	m.eq.rebuild(live)
}

// runLegacy is the seed engine, byte-for-byte: linear min-scan over the
// active list every cycle, per-issue fetch+decode (step) and unconditional
// compaction. The equivalence tests run every experiment through both
// engines and diff the tables.
func (m *Machine) runLegacy() error {
	for len(m.active) > 0 && m.trap == nil {
		// Advance to the earliest pending issue cycle.
		next := m.active[0].nextAt
		for _, tu := range m.active[1:] {
			if tu.nextAt < next {
				next = tu.nextAt
			}
		}
		m.cycle = next
		if m.cycle > m.limit {
			return m.cycleLimit()
		}
		m.tickTimeline()
		// Issue every unit scheduled for this cycle, rotating the
		// starting position for round-robin fairness on ties.
		n := len(m.active)
		m.rr++
		for i := 0; i < n; i++ {
			tu := m.active[(i+m.rr)%n]
			if tu.nextAt == m.cycle && tu.State == Running {
				m.step(tu)
				if m.trap != nil {
					break
				}
			}
		}
		// Compact halted units out of the active list.
		live := m.active[:0]
		for _, tu := range m.active {
			if tu.State == Running {
				live = append(live, tu)
			} else {
				tu.EndCycle, tu.listed = m.cycle, false
			}
		}
		m.active = live
	}
	m.finishTimeline()
	return m.trap
}

// RunningThreads returns the number of currently active units.
func (m *Machine) RunningThreads() int { return len(m.active) }

// halt stops tu; the engine removes it from the active list after the
// current cycle.
func (m *Machine) halt(tu *TU) {
	tu.State = Halted
}

// TotalInsts sums issued instructions over all units. A unit never built
// has issued none.
func (m *Machine) TotalInsts() uint64 {
	var n uint64
	for _, tu := range m.tus {
		if tu != nil {
			n += tu.Insts
		}
	}
	return n
}

// Totals sums every unit's ledger. A unit never built has an empty one.
func (m *Machine) Totals() timing.Totals {
	var t timing.Totals
	for _, tu := range m.tus {
		if tu != nil {
			t.Add(&tu.Ledger)
		}
	}
	return t
}

// Snapshot captures the run's cycle accounting and resource telemetry in
// the deterministic export form. Units that never issued, built or not,
// are omitted.
func (m *Machine) Snapshot() *obs.Snapshot {
	s := &obs.Snapshot{Cycles: m.cycle, Resources: m.Chip.ResourceStats()}
	idle := func(tu *TU) bool { return tu == nil || tu.Insts == 0 && tu.Run == 0 && tu.Stall == 0 }
	n := 0
	for _, tu := range m.tus {
		if !idle(tu) {
			n++
		}
	}
	if n > 0 {
		s.Threads = make([]obs.ThreadStat, 0, n)
	}
	for _, tu := range m.tus {
		if !idle(tu) {
			s.Threads = append(s.Threads, tu.ThreadStat(tu.ID, tu.Quad, tu.Insts))
		}
	}
	s.Finish()
	return s
}
