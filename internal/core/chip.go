// Package core composes a Cyclops chip: the thread-unit topology, the
// quad-shared FPUs, the data cache system, the quad-pair instruction
// caches, the embedded memory banks, the wired-OR barrier network and the
// optional off-chip memory — Figure 1 of the paper as a data structure.
//
// The package owns structure and shared-resource timing. Instruction
// execution lives in internal/sim; the direct-execution timing runtime in
// internal/perf drives the same chip object, so both frontends contend for
// the identical resources.
package core

import (
	"fmt"

	"cyclops/internal/arch"
	"cyclops/internal/barrier"
	"cyclops/internal/cache"
	"cyclops/internal/isa"
	"cyclops/internal/mem"
	"cyclops/internal/obs"
)

// FPU is one quad's floating-point unit: an adder and a multiplier, each
// accepting one operation per cycle, and a non-pipelined divide/square-root
// unit. A floating-point multiply-add dispatches to adder and multiplier
// together and completes every cycle (Section 2).
type FPU struct {
	addFree, mulFree, divFree uint64
	Ops                       uint64
	// Busy accumulates pipe-occupancy cycles; Conflicts counts dispatches
	// that found their pipe busy and WaitCycles the delay they queued —
	// the per-FPU telemetry the observability layer exports.
	Busy, Conflicts, WaitCycles uint64
}

// Dispatch reserves the pipes needed by pipe for exec cycles, starting no
// earlier than now. It returns the cycle execution begins. The adder and
// multiplier are pipelined (busy 1 cycle per op regardless of exec); the
// divide/sqrt unit is not (busy for the whole exec).
func (f *FPU) Dispatch(now uint64, pipe isa.FPUPipe, exec int) uint64 {
	start := now
	occupancy := uint64(1)
	switch pipe {
	case isa.PipeAdd:
		if f.addFree > start {
			start = f.addFree
		}
		f.addFree = start + 1
	case isa.PipeMul:
		if f.mulFree > start {
			start = f.mulFree
		}
		f.mulFree = start + 1
	case isa.PipeBoth:
		if f.addFree > start {
			start = f.addFree
		}
		if f.mulFree > start {
			start = f.mulFree
		}
		f.addFree = start + 1
		f.mulFree = start + 1
		occupancy = 2
	case isa.PipeDiv:
		if f.divFree > start {
			start = f.divFree
		}
		f.divFree = start + uint64(exec)
		occupancy = uint64(exec)
	default:
		return now
	}
	f.Ops++
	f.Busy += occupancy
	if start > now {
		f.Conflicts++
		f.WaitCycles += start - now
	}
	return start
}

// DispatchRun is m Dispatch calls on a pipelined pipe (PipeAdd, PipeMul or
// PipeBoth) at cycles from, from+1, ... in one step, when every pipe it
// needs is free at from: each op then starts the cycle it asks, so none
// waits. It returns the last op's start, and panics on any other pipe.
func (f *FPU) DispatchRun(from uint64, pipe isa.FPUPipe, m int) uint64 {
	n := uint64(m)
	occupancy := uint64(1)
	switch pipe {
	case isa.PipeAdd:
		f.addFree = from + n
	case isa.PipeMul:
		f.mulFree = from + n
	case isa.PipeBoth:
		f.addFree, f.mulFree = from+n, from+n
		occupancy = 2
	default:
		panic("core: DispatchRun on a pipe that is not pipelined")
	}
	f.Ops += n
	f.Busy += n * occupancy
	return from + n - 1
}

// Stats returns the FPU's telemetry for the observability layer.
func (f *FPU) Stats(id int) obs.ResourceStats {
	return obs.ResourceStats{
		Kind:       "fpu",
		ID:         id,
		Busy:       f.Busy,
		Grants:     f.Ops,
		Conflicts:  f.Conflicts,
		WaitCycles: f.WaitCycles,
	}
}

// Chip is a fully assembled Cyclops cell.
type Chip struct {
	Cfg     arch.Config
	Mem     *mem.Memory
	Data    *cache.System
	ICaches []*cache.ICache
	FPUs    []*FPU
	Barrier *barrier.Wired
	OffChip *mem.OffChip

	disabledQuad []bool
}

// NewChip builds a chip for the configuration, booted with the
// configuration's failed banks and disabled quads already out of service.
func NewChip(cfg arch.Config) (*Chip, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := mem.New(cfg)
	c := &Chip{
		Cfg:          cfg,
		Mem:          m,
		Data:         cache.NewSystem(cfg, m),
		ICaches:      make([]*cache.ICache, cfg.ICaches()),
		FPUs:         make([]*FPU, cfg.Quads()),
		Barrier:      barrier.NewWired(cfg.Threads),
		OffChip:      mem.NewOffChip(cfg),
		disabledQuad: make([]bool, cfg.Quads()),
	}
	for i := range c.ICaches {
		c.ICaches[i] = cache.NewICache(cfg)
	}
	for i := range c.FPUs {
		c.FPUs[i] = &FPU{}
	}
	for b := 0; b < cfg.FailedBanks; b++ {
		if err := m.FailBank(b); err != nil {
			return nil, err
		}
	}
	for q := 0; q < cfg.DisabledQuads; q++ {
		if err := c.DisableQuad(q); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// MustNew builds a chip from a configuration known to be valid.
func MustNew(cfg arch.Config) *Chip {
	c, err := NewChip(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// DisableQuad implements the Section 5 fault model for a broken FPU: the
// whole quad is taken out of service — its four thread units stop being
// schedulable and its data cache is bypassed. Computation continues on the
// remaining quads.
func (c *Chip) DisableQuad(q int) error {
	if q < 0 || q >= c.Cfg.Quads() {
		return fmt.Errorf("core: no quad %d", q)
	}
	if c.disabledQuad[q] {
		return fmt.Errorf("core: quad %d already disabled", q)
	}
	if !c.Data.DisableQuad(q) {
		return fmt.Errorf("core: cannot disable quad %d (last one standing?)", q)
	}
	c.disabledQuad[q] = true
	return nil
}

// QuadDisabled reports whether quad q is out of service.
func (c *Chip) QuadDisabled(q int) bool { return c.disabledQuad[q] }

// ThreadUsable reports whether thread unit tid can be scheduled (its quad
// is alive).
func (c *Chip) ThreadUsable(tid int) bool {
	return tid >= 0 && tid < c.Cfg.Threads && !c.disabledQuad[c.Cfg.QuadOf(tid)]
}

// UsableThreads counts schedulable thread units.
func (c *Chip) UsableThreads() int {
	n := 0
	for _, d := range c.disabledQuad {
		if !d {
			n += c.Cfg.ThreadsPerQuad
		}
	}
	return n
}

// WorkerOrder lists the schedulable worker units — usable and past the
// reserved ones — in allocation order: quad by quad, or, balanced, dealt
// one slot at a time across the quads.
func (c *Chip) WorkerOrder(balanced bool) []int {
	cfg := c.Cfg
	order := make([]int, 0, cfg.Threads)
	if balanced {
		for slot := 0; slot < cfg.ThreadsPerQuad; slot++ {
			for q := 0; q < cfg.Quads(); q++ {
				tid := q*cfg.ThreadsPerQuad + slot
				if tid >= cfg.ReservedThreads && c.ThreadUsable(tid) {
					order = append(order, tid)
				}
			}
		}
	} else {
		for tid := cfg.ReservedThreads; tid < cfg.Threads; tid++ {
			if c.ThreadUsable(tid) {
				order = append(order, tid)
			}
		}
	}
	return order
}

// ResourceStats collects the telemetry of every contended shared resource
// — quad cache ports, DRAM banks, quad FPUs — in a fixed deterministic
// order (cache ports, then banks, then FPUs, each by ID).
func (c *Chip) ResourceStats() []obs.ResourceStats {
	quads := c.Cfg.Quads()
	out := make([]obs.ResourceStats, 0, quads*2+c.Mem.Banks())
	for q := 0; q < quads; q++ {
		out = append(out, c.Data.PortStats(q))
	}
	for b := 0; b < c.Mem.Banks(); b++ {
		out = append(out, c.Mem.BankStats(b))
	}
	for q, f := range c.FPUs {
		out = append(out, f.Stats(q))
	}
	return out
}

// LoadImage copies a program image into embedded memory.
func (c *Chip) LoadImage(origin uint32, image []byte) error {
	return c.Mem.Write(origin, image)
}
