// Package cyclops is a simulator for the IBM Cyclops cellular
// architecture, reproducing the system evaluated in "Evaluation of a
// Multithreaded Architecture for Cellular Computing" (HPCA 2002): a
// single-chip SMP with 128 simple in-order thread units, quad-shared
// floating-point units and data caches, software-controlled cache
// placement via interest groups, 16 banks of embedded DRAM, and a
// wired-OR hardware barrier.
//
// Two execution frontends share one chip model:
//
//   - the instruction-level simulator runs Cyclops machine code produced
//     by the built-in assembler (Assemble, NewSystem, System.Boot);
//   - the direct-execution timing runtime runs Go functions whose memory,
//     floating-point and synchronisation operations are charged against
//     the same caches, banks, FPUs and barriers (NewTimingMachine).
//
// The quickest start is a small assembly program:
//
//	prog, _ := cyclops.Assemble(src)
//	sys, _ := cyclops.NewSystem(cyclops.DefaultConfig())
//	sys.Boot(prog)
//	sys.Run()
//	fmt.Print(string(sys.Output()))
package cyclops

import (
	"cyclops/internal/arch"
	"cyclops/internal/asm"
	"cyclops/internal/core"
	"cyclops/internal/kernel"
	"cyclops/internal/link"
	"cyclops/internal/perf"
	"cyclops/internal/sim"
)

// Config is the architectural parameter set (Table 2 of the paper).
type Config = arch.Config

// DefaultConfig returns the paper's design point: 128 threads in 32
// quads, 16 x 512 KB memory banks, Table 2 latencies, 500 MHz.
func DefaultConfig() Config { return arch.Default() }

// InterestGroup controls software cache placement (Table 1): which data
// cache(s) may hold a line, encoded in the top 8 bits of an effective
// address.
type InterestGroup = arch.InterestGroup

// Cache placement modes, in Table 1 order.
const (
	// GroupOwn places data in the accessing thread's own quad cache
	// (interest group zero; software manages replication).
	GroupOwn = arch.GroupOwn
	// GroupOne pins data to exactly one cache.
	GroupOne = arch.GroupOne
	// GroupPair, GroupFour, GroupEight, GroupSixteen spread data over
	// aligned cache groups of that size.
	GroupPair    = arch.GroupPair
	GroupFour    = arch.GroupFour
	GroupEight   = arch.GroupEight
	GroupSixteen = arch.GroupSixteen
	// GroupAll is the chip-wide 512 KB shared cache, the system default.
	GroupAll = arch.GroupAll
)

// EA builds an effective address from a placement and a physical address.
func EA(g InterestGroup, phys uint32) uint32 { return arch.EA(g, phys) }

// Program is an assembled Cyclops memory image.
type Program = asm.Program

// Assemble translates Cyclops assembly source into a Program. See package
// cyclops/internal/asm for the dialect.
func Assemble(src string) (*Program, error) { return asm.Assemble(src) }

// Disassemble renders a program image as assembly.
func Disassemble(p *Program) string { return asm.Disassemble(p) }

// System is a full chip with its resident kernel: the instruction-level
// frontend.
type System struct {
	chip *core.Chip
	k    *kernel.Kernel
}

// NewSystem builds a chip and kernel for the configuration.
func NewSystem(cfg Config) (*System, error) {
	chip, err := core.NewChip(cfg)
	if err != nil {
		return nil, err
	}
	return &System{chip: chip, k: kernel.New(chip)}, nil
}

// Chip exposes the underlying hardware model (memory contents, caches,
// stats, fault injection).
func (s *System) Chip() *core.Chip { return s.chip }

// SetBalancedAllocation switches the kernel to the balanced thread
// placement policy (Section 3.2.2).
func (s *System) SetBalancedAllocation(on bool) {
	if on {
		s.k.Policy = kernel.Balanced
	} else {
		s.k.Policy = kernel.Sequential
	}
}

// Boot loads a program and prepares its main thread.
func (s *System) Boot(p *Program) error { return s.k.Boot(p) }

// Run executes to completion, returning the first trap if any.
func (s *System) Run() error { return s.k.Run() }

// Cycles returns the simulated cycle count.
func (s *System) Cycles() uint64 { return s.k.Machine().Cycle() }

// Output returns the console bytes written through the kernel.
func (s *System) Output() []byte { return s.k.Output }

// ReadWord reads a 32-bit word of embedded memory (for collecting
// results a program stored at a known symbol).
func (s *System) ReadWord(addr uint32) (uint32, error) { return s.chip.Mem.Read32(addr) }

// ThreadStats reports one thread unit's counters.
type ThreadStats struct {
	Run, Stall, Insts uint64
}

// Stats returns per-thread-unit counters, one entry per unit of the chip;
// a unit the run never started reports zeros.
func (s *System) Stats() []ThreadStats {
	m := s.k.Machine()
	out := make([]ThreadStats, s.chip.Cfg.Threads)
	for i := range out {
		tu := m.Unit(i)
		out[i] = ThreadStats{Run: tu.Run, Stall: tu.Stall, Insts: tu.Insts}
	}
	return out
}

// MaxCycles bounds execution (0 = unlimited); runaway programs then stop
// with an error instead of hanging.
func (s *System) MaxCycles(n uint64) { s.k.Machine().MaxCycles = n }

// Machine exposes the instruction-level machine for advanced use (manual
// thread control without the kernel).
func (s *System) Machine() *sim.Machine { return s.k.Machine() }

// TimingMachine is the direct-execution frontend: spawn Go functions as
// simulated Cyclops threads. See cyclops/internal/perf for the thread
// API (T, Val, barriers).
type TimingMachine = perf.Machine

// Thread is a simulated thread handle in the timing runtime.
type Thread = perf.T

// NewTimingMachine builds a timing machine on a fresh chip.
func NewTimingMachine(cfg Config) (*TimingMachine, error) {
	chip, err := core.NewChip(cfg)
	if err != nil {
		return nil, err
	}
	return perf.New(chip), nil
}

// Multi-chip systems (Section 2.2): chips are cells wired into a 3-D
// mesh or torus by their six 16-bit 500 MHz links.

// Mesh is a 3-D array of Cyclops cells connected by links.
type Mesh = link.Mesh

// MeshCoord addresses a cell.
type MeshCoord = link.Coord

// LinkConfig sizes the inter-chip links.
type LinkConfig = link.LinkConfig

// DefaultLinkConfig matches the paper: 16-bit links, 12 GB/s aggregate.
func DefaultLinkConfig() LinkConfig { return link.DefaultLinkConfig() }

// NewMesh wires x*y*z cells into a mesh (or torus).
func NewMesh(cfg LinkConfig, dims MeshCoord, torus bool) (*Mesh, error) {
	return link.NewMesh(cfg, dims, torus)
}
