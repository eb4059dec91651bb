// Package kernel is the resident system kernel of Section 3.1: it supports
// single-user, single-program, multithreaded applications in one shared
// address space. There is no resource virtualization — virtual addresses
// map directly to physical addresses (no paging) and software threads map
// directly to hardware thread units. No preemption, scheduling or
// prioritization; every thread gets a fixed-size stack preallocated at
// boot, giving fast thread creation and reuse. Two thread units are
// reserved for the system, leaving 126 for applications on the default
// chip.
package kernel

import (
	"fmt"
	"strconv"

	"cyclops/internal/arch"
	"cyclops/internal/asm"
	"cyclops/internal/barrier"
	"cyclops/internal/core"
	"cyclops/internal/isa"
	"cyclops/internal/sim"
)

// Policy selects how software threads are placed on hardware thread units
// (Section 3.2.2, "Thread allocation policies").
type Policy uint8

const (
	// Sequential fills quads in order: threads 0..3 on quad 0, 4..7 on
	// quad 1, and so on. This is the default.
	Sequential Policy = iota
	// Balanced deals threads cyclically across quads, so with fewer
	// than all threads in use every quad carries as few as possible and
	// cache/FPU pressure per quad is minimized.
	Balanced
)

func (p Policy) String() string {
	if p == Balanced {
		return "balanced"
	}
	return "sequential"
}

// Kernel implements sim.Syscaller and owns thread placement, stacks and
// the console.
type Kernel struct {
	chip *core.Chip
	m    *sim.Machine

	// StackBytes is the per-thread stack size fixed at boot.
	StackBytes uint32
	// Policy is the thread allocation policy.
	Policy Policy

	// Output receives console bytes (sysPutc / sysPutInt).
	Output []byte

	// order is the worker allocation order, computed by the first call
	// that needs it from Policy and the chip's usable quads; Reset empties
	// it and keeps the array for the next run's order.
	order []int
	// spawned marks the units a thread was ever started on, so a join of
	// a tid that never ran traps instead of waiting forever.
	spawned map[int]bool
}

// New builds a kernel for a chip and creates the machine that runs it, at
// the defaults Reset restores.
func New(chip *core.Chip) *Kernel {
	k := &Kernel{chip: chip, spawned: make(map[int]bool)}
	k.m = sim.New(chip, k)
	k.Reset()
	return k
}

// Machine returns the machine the kernel schedules onto.
func (k *Kernel) Machine() *sim.Machine { return k.m }

// workerOrder lists usable worker thread units in allocation order.
func (k *Kernel) workerOrder() []int {
	if len(k.order) == 0 {
		k.order = k.chip.AppendWorkerOrder(k.order, k.Policy == Balanced)
	}
	return k.order
}

// stackFor returns the initial stack pointer for a hardware thread: the
// stacks are carved from the top of embedded memory, one fixed-size slab
// per thread unit, addressed through the thread's own quad cache so stack
// data stays local (Section 2.1 names thread stacks as the canonical
// high-affinity data).
func (k *Kernel) stackFor(tid int) uint32 {
	top := k.chip.Mem.Size() - uint32(tid)*k.StackBytes
	return arch.EA(arch.InterestGroup{Mode: arch.GroupOwn}, top)
}

// StackBase returns the lowest physical address reserved for stacks; the
// application image and heap must stay below it.
func (k *Kernel) StackBase() uint32 {
	return k.chip.Mem.Size() - uint32(k.chip.Cfg.Threads)*k.StackBytes
}

// startThread initialises a unit and begins execution at pc.
func (k *Kernel) startThread(tid int, pc uint32, arg uint32) error {
	tu := k.m.Unit(tid)
	for r := range tu.Regs {
		tu.Regs[r] = 0
	}
	tu.Regs[isa.RSP] = k.stackFor(tid)
	tu.Regs[isa.RArg0] = arg
	// Arm the thread's contribution to barrier 0 before it runs, so the
	// first chip-wide barrier cannot release early (Section 2.3's "all
	// threads participating initially set their current bit").
	_, init := barrier.NewParticipant(0)
	k.m.WriteBarrier(tid, init)
	k.spawned[tid] = true
	return k.m.Start(tid, pc)
}

// Boot loads an assembled program and starts its entry point on the first
// worker thread unit.
func (k *Kernel) Boot(p *asm.Program) error {
	if p.Origin+uint32(len(p.Bytes)) > k.StackBase() {
		return fmt.Errorf("kernel: image [%#x,%#x) overlaps the stack region at %#x",
			p.Origin, p.Origin+uint32(len(p.Bytes)), k.StackBase())
	}
	if err := k.chip.LoadImage(p.Origin, p.Bytes); err != nil {
		return err
	}
	order := k.workerOrder()
	if len(order) == 0 {
		return fmt.Errorf("kernel: no usable worker threads")
	}
	return k.startThread(order[0], p.Entry, 0)
}

// Run boots nothing further and executes to completion.
func (k *Kernel) Run() error { return k.m.Run() }

// Syscall implements sim.Syscaller.
func (k *Kernel) Syscall(m *sim.Machine, tu *sim.TU) sim.SysResult {
	no := tu.Regs[isa.RArg0]
	a1 := tu.Regs[isa.RArg1]
	a2 := tu.Regs[isa.RArg2]
	switch no {
	case isa.SysExit:
		// Withdraw from the wired-OR so later barriers among the
		// surviving threads are not blocked by a dead contribution.
		m.WriteBarrier(tu.ID, 0)
		return sim.SysResult{Halt: true}

	case isa.SysPutc:
		k.Output = append(k.Output, byte(a1))
		return sim.SysResult{Cost: 4}

	case isa.SysPutInt:
		k.Output = append(k.Output, []byte(strconv.Itoa(int(int32(a1))))...)
		return sim.SysResult{Cost: 8}

	case isa.SysSpawn:
		tid := k.freeWorker()
		if tid < 0 {
			tu.Regs[isa.RArg0] = ^uint32(0)
			return sim.SysResult{Cost: 10}
		}
		if err := k.startThread(tid, a1, a2); err != nil {
			m.Trap("kernel: spawn: %v", err)
			return sim.SysResult{Halt: true}
		}
		tu.Regs[isa.RArg0] = uint32(tid)
		// Thread creation is fast on Cyclops (preallocated stacks).
		return sim.SysResult{Cost: 10}

	case isa.SysJoin:
		tid := int(a1)
		if tid < 0 || tid >= k.chip.Cfg.Threads || !k.spawned[tid] {
			m.Trap("kernel: thread %d joined unknown thread %d", tu.ID, tid)
			return sim.SysResult{Halt: true}
		}
		if m.Unit(tid).State == sim.Running {
			return sim.SysResult{Cost: 20, Retry: true}
		}
		return sim.SysResult{Cost: 4}

	case isa.SysThreads:
		tu.Regs[isa.RArg0] = uint32(len(k.workerOrder()))
		return sim.SysResult{Cost: 4}

	case isa.SysOffChipRead, isa.SysOffChipWrite:
		if k.chip.OffChip == nil {
			m.Trap("kernel: no off-chip memory configured")
			return sim.SysResult{Halt: true}
		}
		var done uint64
		var err error
		if no == isa.SysOffChipRead {
			done, err = k.chip.OffChip.ReadBlock(m.Cycle(), k.chip.Mem, a1, a2)
		} else {
			done, err = k.chip.OffChip.WriteBlock(m.Cycle(), k.chip.Mem, a2, a1)
		}
		if err != nil {
			m.Trap("kernel: off-chip: %v", err)
			return sim.SysResult{Halt: true}
		}
		return sim.SysResult{Cost: done - m.Cycle()}

	default:
		m.Trap("kernel: thread %d: unknown syscall %d", tu.ID, no)
		return sim.SysResult{Halt: true}
	}
}

// freeWorker returns the next never-started usable worker unit, -1 if none.
func (k *Kernel) freeWorker() int {
	for _, tid := range k.workerOrder() {
		if !k.spawned[tid] && k.m.Unit(tid).State == sim.Idle {
			return tid
		}
	}
	return -1
}

// Reset returns the kernel and its machine (sim.Machine.Reset) to the state
// New builds: the default stack size and the sequential policy, no console
// output, no thread ever spawned and no allocation order. It keeps what
// New and its runs allocated, the order's array included, so a kernel
// reused from run to run over one chip builds neither the machine, the
// thread units nor the order again. Output is dropped, not truncated: a
// result that took the last run's output keeps it. Reset leaves the chip
// alone: reset it too (core.Chip.ResetTo) before the next Boot.
func (k *Kernel) Reset() {
	k.StackBytes, k.Policy, k.Output, k.order = 8<<10, Sequential, nil, k.order[:0]
	clear(k.spawned)
	k.m.Reset()
}
