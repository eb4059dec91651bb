// Package splash implements the SPLASH-2 kernels the paper evaluates
// (Figure 3: Barnes, FFT, FMM, LU, Ocean, Radix; Figure 7: FFT with
// hardware vs software barriers) against the direct-execution timing
// runtime of internal/perf.
//
// Each kernel computes real results on native Go data — verified by unit
// and property tests — while charging every load, store, floating-point
// operation and barrier through the simulated Cyclops chip, so speedup
// curves and run/stall breakdowns come from the same memory system and
// FPU model as the instruction-level simulator.
package splash

import (
	"fmt"
	"math"

	"cyclops/internal/arch"
	"cyclops/internal/core"
	"cyclops/internal/perf"
	"cyclops/internal/prof"
	"cyclops/internal/timing"
)

// BarrierKind selects the synchronisation implementation (Section 3.3).
type BarrierKind int

const (
	// HW uses the wired-OR SPR barrier.
	HW BarrierKind = iota
	// SW uses the tree-over-memory software barrier.
	SW
)

func (k BarrierKind) String() string {
	if k == SW {
		return "sw"
	}
	return "hw"
}

// Result reports one kernel execution.
type Result struct {
	Name    string
	Threads int
	Problem string
	// Cycles is the elapsed virtual time of the slowest thread.
	Cycles uint64
	// Totals is the cycle accounting summed over threads (Figure 7's
	// bars).
	timing.Totals
	// Profile, Regions and Timeline are the attached profiler outputs
	// (nil unless Config asked for them); Regions symbolizes the
	// profile's synthetic region PCs.
	Profile  *prof.Profile
	Regions  *prof.RegionTable
	Timeline *prof.Timeline
}

// Speedup returns base.Cycles / r.Cycles.
func (r *Result) Speedup(base *Result) float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(base.Cycles) / float64(r.Cycles)
}

// Config carries the common kernel options.
type Config struct {
	// Threads is the number of worker threads (1..126 on the default
	// chip).
	Threads int
	// Barrier selects hardware or software barriers.
	Barrier BarrierKind
	// Balanced deals threads across quads instead of filling quads
	// sequentially; with fewer than all threads in use this spreads
	// FPU and cache pressure (Section 3.2.2).
	Balanced bool
	// Chip, when non-nil, supplies a custom chip (design exploration);
	// otherwise a fresh default chip is built.
	Chip *core.Chip
	// Issue is this run's issue policy (fine-grained, blocked,
	// switch-on-miss); nil is fine-grained.
	Issue timing.Policy
	// ProfileEvery, when nonzero, attaches the guest profiler sampling
	// every N cycles per thread; kernels annotate their phases with
	// T.Region and the profile lands in the Result. TimelineEvery
	// likewise attaches the interval telemetry timeline.
	ProfileEvery  uint64
	TimelineEvery uint64
	// MaxCycles bounds the run (perf.Machine.MaxCycles; 0 = no limit).
	MaxCycles uint64
}

// Machine builds the direct-execution machine the options describe —
// chip, issue policy, thread placement, attached profilers. The Section 5
// applications (internal/md, internal/ray) build theirs here too.
func (c Config) Machine() (*perf.Machine, error) {
	chip := c.Chip
	if chip == nil {
		chip = core.MustNew(arch.Default())
	}
	if c.Threads < 1 || c.Threads > chip.Cfg.WorkerThreads() {
		return nil, fmt.Errorf("splash: %d threads out of range (1..%d)", c.Threads, chip.Cfg.WorkerThreads())
	}
	m := perf.New(chip)
	m.SetPolicy(c.Issue)
	m.Balanced = c.Balanced
	m.MaxCycles = c.MaxCycles
	if c.ProfileEvery > 0 {
		m.AttachProfile(prof.New(c.ProfileEvery))
	}
	if c.TimelineEvery > 0 {
		m.AttachTimeline(prof.NewTimeline(c.TimelineEvery))
	}
	return m, nil
}

// AllocShared reserves chip-wide shared memory on m for the product of
// size and dims bytes: the chip allocation of every direct-execution
// workload. Each makes its allocations before the host slices they
// mirror, so a problem too large for the chip is refused before the host
// builds it, and a product too large for the chip's 32-bit address space
// is refused before it can overflow.
func AllocShared(m *perf.Machine, size int, dims ...int) (uint32, error) {
	n := size
	for _, d := range dims {
		if d < 0 || d > math.MaxInt32 || n > math.MaxInt32 {
			return 0, fmt.Errorf("splash: allocation of %d x %v bytes exceeds embedded memory", size, dims)
		}
		n *= d
	}
	return m.Alloc(n, arch.InterestGroup{Mode: arch.GroupAll})
}

// Barrier adapts the two implementations behind one call.
type Barrier struct {
	hw *perf.HWBarrier
	sw *perf.SWBarrier
}

// NewBarrier builds an n-thread barrier of the given kind on m. A
// software barrier takes its flags from chip memory, and fails when they
// do not fit.
func NewBarrier(m *perf.Machine, n int, kind BarrierKind) (*Barrier, error) {
	if kind == SW {
		sw, err := perf.NewSWBarrier(m, n, 4)
		if err != nil {
			return nil, err
		}
		return &Barrier{sw: sw}, nil
	}
	return &Barrier{hw: perf.NewHWBarrier(n)}, nil
}

// Wait blocks thread t (participant index) until all n have arrived.
func (b *Barrier) Wait(t *perf.T, index int) {
	if b.sw != nil {
		t.SWBarrier(b.sw, index)
	} else {
		t.HWBarrier(b.hw)
	}
}

// NewResult collects the standard metrics of a finished run on m. It is
// the one result builder of every direct-execution workload: the kernels
// here, the Section 5 applications (internal/md, internal/ray) and the
// barrier microbenchmark.
func NewResult(name, problem string, threads int, m *perf.Machine) *Result {
	return &Result{
		Name:     name,
		Threads:  threads,
		Problem:  problem,
		Cycles:   m.Elapsed(),
		Totals:   m.Totals(),
		Profile:  m.Prof,
		Regions:  m.Regions,
		Timeline: m.TL,
	}
}

// Span returns the half-open index range [lo, hi) that thread p of nThreads
// owns out of n items, balancing remainders.
func Span(n, p, nThreads int) (lo, hi int) {
	base := n / nThreads
	rem := n % nThreads
	lo = p*base + minInt(p, rem)
	hi = lo + base
	if p < rem {
		hi++
	}
	return lo, hi
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
