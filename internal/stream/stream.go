// Package stream implements the STREAM benchmark (McCalpin) for the
// Cyclops instruction-level simulator, reproducing every variant measured
// in Section 3.2 of the paper:
//
//   - single-threaded and 126-thread "out of the box" runs (Figure 4),
//   - blocked vs cyclic loop partitioning (Figure 5a/5b),
//   - blocked partitioning into local caches via the own-cache interest
//     group (Figure 5c),
//   - four-way hand-unrolled loops (Figure 5d),
//   - the thread-count sweep of Figure 6a.
//
// The benchmark programs are generated as Cyclops assembly and run on the
// simulated chip under the resident kernel. Threads synchronise with the
// hardware barrier and the main thread samples the cycle SPR between
// barriers, so the measured region covers exactly the vector kernel.
package stream

import (
	"fmt"
	"strings"

	"cyclops/internal/arch"
	"cyclops/internal/sim"
	"cyclops/internal/timing"
)

// Kernel selects one of the four STREAM vector kernels.
type Kernel int

const (
	// Copy: c[i] = a[i]; moves 16 bytes per element.
	Copy Kernel = iota
	// Scale: b[i] = s*c[i]; 16 bytes per element.
	Scale
	// Add: c[i] = a[i] + b[i]; 24 bytes per element.
	Add
	// Triad: a[i] = b[i] + s*c[i]; 24 bytes per element.
	Triad
)

// Kernels lists all four in paper order.
var Kernels = []Kernel{Copy, Add, Scale, Triad}

func (k Kernel) String() string {
	switch k {
	case Copy:
		return "Copy"
	case Scale:
		return "Scale"
	case Add:
		return "Add"
	case Triad:
		return "Triad"
	}
	return "?"
}

// ParseKernel reads String's spelling of a Kernel, in any case ("triad",
// "Triad").
func ParseKernel(s string) (Kernel, error) {
	for _, k := range Kernels {
		if strings.EqualFold(s, k.String()) {
			return k, nil
		}
	}
	return Copy, fmt.Errorf("kernel %q (want one of %v, in any case)", s, Kernels)
}

// BytesPerElement returns the STREAM-convention counted traffic.
func (k Kernel) BytesPerElement() int {
	if k == Add || k == Triad {
		return 24
	}
	return 16
}

// Partition selects how loop iterations are split among threads
// (Section 3.2.2, "Loop partitioning").
type Partition int

const (
	// Blocked gives each thread one contiguous chunk; each cache line
	// is used by exactly one thread.
	Blocked Partition = iota
	// Cyclic deals cache lines to thread groups of eight; the eight
	// threads of a group touch each of the group's lines together,
	// one element apiece.
	Cyclic
)

func (p Partition) String() string {
	if p == Cyclic {
		return "cyclic"
	}
	return "blocked"
}

// ParsePartition reads String's spelling of a Partition; "" is Blocked, the
// default.
func ParsePartition(s string) (Partition, error) {
	for p := Blocked; p <= Cyclic; p++ {
		if s == p.String() {
			return p, nil
		}
	}
	if s == "" {
		return Blocked, nil
	}
	return Blocked, fmt.Errorf("partition %q (want %s or %s)", s, Blocked, Cyclic)
}

// Params configures one STREAM program.
type Params struct {
	Kernel  Kernel
	Threads int
	// N is the total vector length in elements (or per-thread length
	// when Independent). Must be a multiple of 8 (one cache line) and,
	// for partitioned runs, of 8*Threads.
	N         int
	Partition Partition
	// Local maps each thread's elements into its own quad cache via the
	// interest-group mechanism instead of spreading them chip-wide.
	Local bool
	// Unroll is the hand-unrolling depth: 1 or 4.
	Unroll int
	// Independent runs one private STREAM per thread (Figure 4b) rather
	// than partitioning shared vectors.
	Independent bool
	// Reps repeats the timed kernel; the harness reports the best rep,
	// following STREAM's best-of-ten convention (default 3).
	Reps int
	// ProfileEvery, when nonzero, attaches the guest profiler sampling
	// every N cycles per thread unit; the profile and the assembled
	// program (for symbolization) land in the Result. TimelineEvery
	// likewise attaches the interval telemetry timeline.
	ProfileEvery  uint64
	TimelineEvery uint64
	// Issue is this run's issue policy (fine-grained, blocked,
	// switch-on-miss); nil is fine-grained. Distinct from the
	// kernel.Policy parameter of Run, which selects thread *placement*.
	Issue timing.Policy
	// Engine, when non-nil, selects the simulator execution engine of
	// this run's machine; nil is block.
	Engine *sim.Engine
	// MaxCycles bounds the run (sim.Machine.MaxCycles); 0 defaults to
	// DefaultMaxCycles.
	MaxCycles uint64
}

// Vector placement: three 2 MB regions below the kernel stacks, staggered
// by one cache line each so that a[i], b[i] and c[i] fall in different
// memory banks (a 2 MB stride alone is invariant under the bank hash).
const (
	vecA = 0x100000
	vecB = 0x300040
	vecC = 0x500080
)

// DefaultReps is the repetition count a zero Reps defaults to, and MaxReps
// the most a program can time: the stamp that ends rep i is stored at
// offset 4(i+1) into the stamp table, and a store's offset is a 13-bit
// signed immediate.
const (
	DefaultReps = 3
	MaxReps     = 1023
)

// DefaultMaxCycles is the cycle limit a zero MaxCycles defaults to: a
// generous ceiling, as the slowest kernels move ~1 element per ~100
// cycles per thread at worst.
const DefaultMaxCycles = 500_000_000

// SetDefaults makes the defaulted fields explicit: a zero Reps is
// DefaultReps, a zero Unroll 1 and a zero MaxCycles DefaultMaxCycles.
func (p *Params) SetDefaults() {
	if p.Reps == 0 {
		p.Reps = DefaultReps
	}
	if p.Unroll == 0 {
		p.Unroll = 1
	}
	if p.MaxCycles == 0 {
		p.MaxCycles = DefaultMaxCycles
	}
}

// Validate reports the first problem with the parameters.
func (p Params) Validate() error {
	p.SetDefaults()
	switch {
	case p.Threads < 1:
		return fmt.Errorf("stream: Threads = %d", p.Threads)
	case p.Reps < 1 || p.Reps > MaxReps:
		return fmt.Errorf("stream: Reps = %d, want 1 to %d", p.Reps, MaxReps)
	case p.N < 8 || p.N%8 != 0:
		return fmt.Errorf("stream: N = %d must be a positive multiple of 8", p.N)
	case p.Unroll != 1 && p.Unroll != 4:
		return fmt.Errorf("stream: Unroll = %d, want 1 or 4", p.Unroll)
	case !p.Independent && p.N%(8*p.Threads) != 0:
		return fmt.Errorf("stream: N = %d must divide into 8-element lines across %d threads", p.N, p.Threads)
	case p.Partition == Cyclic && (p.Local || p.Independent):
		return fmt.Errorf("stream: cyclic partitioning combines only with the shared cache mode")
	case p.Unroll == 4 && p.Partition == Cyclic:
		return fmt.Errorf("stream: the paper unrolls only the blocked variants")
	}
	total := p.N
	if p.Independent {
		total = p.N * p.Threads
	}
	if 3*total*8 > vecB-vecA+vecC-vecB+0x200000 {
		return fmt.Errorf("stream: %d total elements exceed the 6 MB vector region", total)
	}
	return nil
}

// ea returns the numeric effective address of a vector base: local runs
// use the own-cache interest group (zero, so plain physical addresses);
// everything else uses the chip-wide shared group, the system default.
func (p Params) ea(phys uint32) uint32 {
	if p.Local {
		return arch.EA(arch.InterestGroup{Mode: arch.GroupOwn}, phys)
	}
	return arch.EA(arch.InterestGroup{Mode: arch.GroupAll}, phys)
}

// Generate emits the Cyclops assembly program for the parameters.
func Generate(p Params) (string, error) {
	p.SetDefaults()
	if err := p.Validate(); err != nil {
		return "", err
	}
	g := &gen{p: p}
	g.sb.Grow(sourceBytes(p))
	return g.program(), nil
}

// sourceBytes bounds the length of p's program, so that Generate sizes
// its builder once: at most 41 lines outside the repetitions, 12 per
// barrier and stamp, 10 per kernel loop plus 4 per unrolled element, and
// under 24 bytes a line on average (the generated programs average 20).
func sourceBytes(p Params) int {
	return 24 * (41 + 12*(p.Reps+1) + p.Reps*(10+4*p.Unroll))
}

type gen struct {
	p   Params
	sb  strings.Builder
	lbl int
}

func (g *gen) f(format string, args ...interface{}) {
	fmt.Fprintf(&g.sb, format, args...)
	g.sb.WriteByte('\n')
}

func (g *gen) label(prefix string) string {
	g.lbl++
	return fmt.Sprintf("%s_%d", prefix, g.lbl)
}

// program builds the whole benchmark: spawn, barrier-timed rep loop, exit.
func (g *gen) program() string {
	p := g.p
	g.f("; STREAM %s: N=%d threads=%d %s local=%v unroll=%d independent=%v",
		p.Kernel, p.N, p.Threads, p.Partition, p.Local, p.Unroll, p.Independent)
	g.f("\t.org 0x100")

	// Main entry: spawn workers 1..T-1, then fall through as index 0.
	g.f("_start:")
	if p.Threads > 1 {
		g.f("\tli   r8, 1")
		g.f("\tli   r9, %d", p.Threads)
		spawn := g.label("spawn")
		g.f("%s:\tli   a0, 3\t\t; SysSpawn", spawn)
		g.f("\tla   a1, thread")
		g.f("\tmov  a2, r8")
		g.f("\tsyscall")
		g.f("\taddi r8, r8, 1")
		g.f("\tblt  r8, r9, %s", spawn)
	}
	g.f("\tli   a0, 0\t\t; main participates as index 0")
	g.f("\tj    thread")

	// Per-thread body. Index arrives in a0 (r4).
	g.f("thread:")
	g.f("\tmov  r30, a0\t\t; r30 = thread index")
	g.setup()
	// Barrier masks: r26 = current, r27 = next.
	g.f("\tli   r26, 1")
	g.f("\tli   r27, 2")
	for rep := 0; rep < p.Reps; rep++ {
		g.barrier()
		g.stamp(rep)
		g.kernelLoop(rep)
	}
	g.barrier()
	g.stamp(p.Reps)
	g.f("\tli   a0, 0\t\t; SysExit")
	g.f("\tsyscall")

	g.f("\t.align 8")
	g.f("scalar:\t.double 3.0")
	g.f("times:\t.space %d", 4*(p.Reps+1))
	return g.sb.String()
}

// barrier emits one hardware-barrier entry with role swap (Section 2.3).
func (g *gen) barrier() {
	spin := g.label("spin")
	g.f("\tmtspr r27, 4\t\t; enter: clear current, set next")
	g.f("%s:\tmfspr r9, 4", spin)
	g.f("\tand  r9, r9, r26")
	g.f("\tbne  r9, r0, %s", spin)
	g.f("\tmov  r9, r26\t\t; swap roles")
	g.f("\tmov  r26, r27")
	g.f("\tmov  r27, r9")
}

// stamp records the cycle counter (main thread only) into times[i].
func (g *gen) stamp(i int) {
	skip := g.label("nostamp")
	g.f("\tbne  r30, r0, %s", skip)
	g.f("\tmfspr r9, 2")
	g.f("\tla   r10, times")
	g.f("\tsw   r9, %d(r10)", 4*i)
	g.f("%s:", skip)
}

// setup computes per-thread pointers and loop counts into fixed registers:
//
//	r16/r18/r20: pointers for the vectors the kernel touches
//	r22: element count (outer count for cyclic)
//	r23: pointer stride per iteration
//	d60: the scalar s
func (g *gen) setup() {
	p := g.p
	g.f("\tla   r9, scalar")
	g.f("\tld   d60, 0(r9)")
	switch {
	case p.Independent:
		// Thread t owns private vectors at V + t*3*N*8.
		span := p.N * 8
		g.f("\tli   r9, %d", 3*span)
		g.f("\tmul  r10, r30, r9\t; private region offset")
		g.f("\tli   r16, %d", p.ea(vecA))
		g.f("\tadd  r16, r16, r10")
		g.f("\tli   r9, %d", span)
		g.f("\tadd  r18, r16, r9\t; b after a")
		g.f("\tadd  r20, r18, r9\t; c after b")
		g.f("\tli   r22, %d", p.N)
		g.f("\tli   r23, %d", 8*p.Unroll)

	case p.Partition == Blocked:
		chunk := p.N / p.Threads
		g.f("\tli   r9, %d", chunk*8)
		g.f("\tmul  r10, r30, r9\t; my chunk offset")
		g.f("\tli   r16, %d", p.ea(vecA))
		g.f("\tadd  r16, r16, r10")
		g.f("\tli   r18, %d", p.ea(vecB))
		g.f("\tadd  r18, r18, r10")
		g.f("\tli   r20, %d", p.ea(vecC))
		g.f("\tadd  r20, r20, r10")
		g.f("\tli   r22, %d", chunk)
		g.f("\tli   r23, %d", 8*p.Unroll)

	default: // Cyclic: lines dealt to groups of 8 threads
		groups := (p.Threads + 7) / 8
		lines := p.N / 8
		g.f("\tsrli r11, r30, 3\t; group = index/8")
		g.f("\tandi r12, r30, 7\t; lane  = index%%8")
		// lineOffset = group*64 + lane*8
		g.f("\tslli r13, r11, 6")
		g.f("\tslli r14, r12, 3")
		g.f("\tadd  r13, r13, r14")
		g.f("\tli   r16, %d", p.ea(vecA))
		g.f("\tadd  r16, r16, r13")
		g.f("\tli   r18, %d", p.ea(vecB))
		g.f("\tadd  r18, r18, r13")
		g.f("\tli   r20, %d", p.ea(vecC))
		g.f("\tadd  r20, r20, r13")
		// count = ceil((lines - group) / groups), lines > group always
		// because lines >= threads/8 is required by Validate.
		g.f("\tli   r9, %d", lines)
		g.f("\tsub  r9, r9, r11")
		g.f("\taddi r9, r9, %d", groups-1)
		g.f("\tli   r10, %d", groups)
		g.f("\tdivu r22, r9, r10")
		g.f("\tli   r23, %d", groups*64)
	}
}

// kernelLoop emits one timed repetition of the vector kernel.
func (g *gen) kernelLoop(rep int) {
	p := g.p
	loop := g.label("loop")
	g.f("\tmov  r8, r16\t\t; a")
	g.f("\tmov  r10, r18\t\t; b")
	g.f("\tmov  r12, r20\t\t; c")
	g.f("\tmov  r14, r22\t\t; count")
	g.f("%s:", loop)
	// Phase-ordered unrolled body: all loads first, then compute, then
	// stores. On an in-order single-issue thread this is what makes
	// unrolling pay — independent loads issue while earlier ones are
	// still completing (Section 3.2.2, "Code optimization").
	for _, phase := range []func(int){g.loads, g.compute, g.stores} {
		for u := 0; u < p.Unroll; u++ {
			phase(u * 8)
		}
	}
	g.f("\tadd  r8, r8, r23")
	g.f("\tadd  r10, r10, r23")
	g.f("\tadd  r12, r12, r23")
	dec := p.Unroll
	if p.Partition == Cyclic {
		dec = 1 // one element per line visit, count is line count
	}
	g.f("\taddi r14, r14, -%d", dec)
	g.f("\tbne  r14, r0, %s", loop)
	// Per-thread counts are always 8-element-line multiples (Validate),
	// so the 4-way unroll never needs a remainder loop.
	_ = rep
}

// vregs returns the rotating double-register pair for an unroll position,
// so unrolled iterations are fully independent; d60 holds the scalar.
func vregs(off int) (v1, v2 int) {
	d0 := 32 + (off/8%4)*4 // d32..d44 plus pair partners d34..d46
	return d0, d0 + 2
}

// loads emits the load phase for one element at byte offset off.
func (g *gen) loads(off int) {
	v1, v2 := vregs(off)
	switch g.p.Kernel {
	case Copy: // c[i] = a[i]
		g.f("\tld   d%d, %d(r8)", v1, off)
	case Scale: // b[i] = s*c[i]
		g.f("\tld   d%d, %d(r12)", v1, off)
	case Add: // c[i] = a[i] + b[i]
		g.f("\tld   d%d, %d(r8)", v1, off)
		g.f("\tld   d%d, %d(r10)", v2, off)
	case Triad: // a[i] = b[i] + s*c[i]
		g.f("\tld   d%d, %d(r10)", v1, off)
		g.f("\tld   d%d, %d(r12)", v2, off)
	}
}

// compute emits the arithmetic phase for one element.
func (g *gen) compute(off int) {
	v1, v2 := vregs(off)
	switch g.p.Kernel {
	case Scale:
		g.f("\tfmul d%d, d%d, d60", v2, v1)
	case Add:
		g.f("\tfadd d%d, d%d, d%d", v1, v1, v2)
	case Triad:
		g.f("\tfma  d%d, d%d, d60, d%d", v1, v2, v1)
	}
}

// stores emits the store phase for one element.
func (g *gen) stores(off int) {
	v1, v2 := vregs(off)
	switch g.p.Kernel {
	case Copy:
		g.f("\tsd   d%d, %d(r12)", v1, off)
	case Scale:
		g.f("\tsd   d%d, %d(r10)", v2, off)
	case Add:
		g.f("\tsd   d%d, %d(r12)", v1, off)
	case Triad:
		g.f("\tsd   d%d, %d(r8)", v1, off)
	}
}
