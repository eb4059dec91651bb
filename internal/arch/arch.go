// Package arch defines the architectural parameters of the Cyclops chip:
// the configuration knobs of Table 2 of the HPCA 2002 paper, the memory
// map, and the interest-group address encoding of Table 1.
//
// Every other package derives sizes, latencies and peaks from a Config
// value so that design-space exploration (the harness's ablate-*
// experiments) can vary a single parameter and rebuild the whole machine.
package arch

import "fmt"

// Fixed structural constants of the evaluated design point. These are the
// quantities the paper treats as given by silicon area; the variable ones
// live in Config.
const (
	// WordSize is the architectural word size in bytes (32-bit design).
	WordSize = 4
	// NumGPR is the number of 32-bit general-purpose registers per thread.
	// Registers pair up (even, odd) for double-precision values.
	NumGPR = 64
	// PhysAddrBits is the width of a physical address. 24 bits give a
	// maximum addressable embedded memory of 16 MB.
	PhysAddrBits = 24
	// PhysAddrMask extracts the physical part of an effective address.
	PhysAddrMask = 1<<PhysAddrBits - 1
	// GroupShift is the bit position of the 8-bit interest-group field in
	// a 32-bit effective address.
	GroupShift = PhysAddrBits
	// ClockHz is the design-point clock: 500 MHz.
	ClockHz = 500_000_000
)

// Config carries every architectural parameter of a simulated chip.
// The zero value is not useful; start from Default().
type Config struct {
	// Threads is the number of thread units on the chip.
	Threads int
	// ThreadsPerQuad is the FPU/D-cache sharing degree (4 in the paper).
	ThreadsPerQuad int
	// QuadsPerICache is the number of quads sharing one I-cache (2).
	QuadsPerICache int

	// MemBanks is the number of embedded DRAM banks (16).
	MemBanks int
	// MemBankBytes is the capacity of one bank (512 KB).
	MemBankBytes int
	// MemBurstBytes is the size of one DRAM burst transfer (64 B:
	// two consecutive 32-byte blocks in burst mode).
	MemBurstBytes int
	// MemBurstCycles is the bank occupancy of one burst (12 cycles,
	// giving the 42 GB/s peak of Section 2.1).
	MemBurstCycles int
	// MemInterleaveShift selects the address bits that pick a bank:
	// bank = (addr >> shift) % MemBanks. 6 keeps a 64-byte cache line
	// inside one bank so line fills ride a single burst.
	MemInterleaveShift uint
	// StoreLagCycles bounds each bank's write-combining backlog: a
	// write-through store whose target bank is further behind than this
	// blocks the storing thread until the backlog drains (finite write
	// buffers give stores backpressure).
	StoreLagCycles int

	// DCacheBytes is the capacity of one data cache (16 KB).
	DCacheBytes int
	// DCacheLine is the data-cache line size (64 B).
	DCacheLine int
	// DCacheAssoc is the data-cache associativity (up to 8).
	DCacheAssoc int
	// DCachePortBytes is the per-cycle port width of one cache (8 B,
	// giving the 128 GB/s aggregate peak).
	DCachePortBytes int

	// ICacheBytes is the capacity of one instruction cache (32 KB).
	ICacheBytes int
	// ICacheLine is the instruction-cache line size (32 B per Table 2).
	ICacheLine int
	// ICacheAssoc is the instruction-cache associativity (8).
	ICacheAssoc int
	// PIBEntries is the per-thread prefetch instruction buffer size (16).
	PIBEntries int

	// Latencies is the instruction cost table (Table 2).
	Latencies LatencyTable

	// ReservedThreads is the number of thread units claimed by the
	// resident kernel (2: threads 0 and 1).
	ReservedThreads int

	// OffChipBytes is the optional external memory size (0 disables it;
	// at most 2 GB, the top of the paper's range).
	OffChipBytes int
	// OffChipBlock is the external transfer granularity (1 KB); a block
	// has to fit the embedded memory it moves to and from.
	OffChipBlock int
	// OffChipBlockCycles is the cost of moving one block, derived from
	// the 12 GB/s aggregate link budget of Section 2.2.
	OffChipBlockCycles int

	// Barriers is the number of independent hardware barriers provided
	// by the 8-bit wired-OR SPR (4: two bits per barrier).
	Barriers int

	// FailedBanks and DisabledQuads are the Section 5 fault model as
	// boot-time configuration: the chip comes up with its first
	// FailedBanks memory banks re-mapped out of the address space and its
	// first DisabledQuads quads (FPU, data cache and thread units) out of
	// service. Zero — the healthy chip — is omitted from the encoding, so
	// fault-free configurations keep their spec keys.
	FailedBanks   int `json:"FailedBanks,omitempty"`
	DisabledQuads int `json:"DisabledQuads,omitempty"`
}

// LatencyTable holds per-class instruction costs following Table 2 of the
// paper. Execution is the number of cycles the functional unit stays busy;
// Latency is the additional cycles before the result becomes available to
// dependent instructions.
type LatencyTable struct {
	BranchExec int // branches: 2 execution, 0 latency

	IntMulExec    int
	IntMulLatency int
	IntDivExec    int // non-pipelined

	FPExec     int // add, multiply, convert
	FPLatency  int
	FPDivExec  int // double-precision divide, non-pipelined
	FPSqrtExec int // double-precision square root, non-pipelined
	FMAExec    int
	FMALatency int

	MemExec           int // all memory operations occupy the port 1 cycle
	LocalHitLatency   int
	LocalMissLatency  int
	RemoteHitLatency  int
	RemoteMissLatency int

	OtherExec int // every remaining operation: 1 cycle, no latency
}

// Default returns the design point evaluated in the paper: 128 threads,
// 32 quads, 16 banks, the Table 2 latencies.
func Default() Config {
	return Config{
		Threads:            128,
		ThreadsPerQuad:     4,
		QuadsPerICache:     2,
		MemBanks:           16,
		MemBankBytes:       512 << 10,
		MemBurstBytes:      64,
		MemBurstCycles:     12,
		MemInterleaveShift: 6,
		StoreLagCycles:     192,
		DCacheBytes:        16 << 10,
		DCacheLine:         64,
		DCacheAssoc:        8,
		DCachePortBytes:    8,
		ICacheBytes:        32 << 10,
		ICacheLine:         32,
		ICacheAssoc:        8,
		PIBEntries:         16,
		Latencies: LatencyTable{
			BranchExec:        2,
			IntMulExec:        1,
			IntMulLatency:     5,
			IntDivExec:        33,
			FPExec:            1,
			FPLatency:         5,
			FPDivExec:         30,
			FPSqrtExec:        56,
			FMAExec:           1,
			FMALatency:        9,
			MemExec:           1,
			LocalHitLatency:   6,
			LocalMissLatency:  24,
			RemoteHitLatency:  17,
			RemoteMissLatency: 36,
			OtherExec:         1,
		},
		ReservedThreads:    2,
		OffChipBytes:       0,
		OffChipBlock:       1 << 10,
		OffChipBlockCycles: 42, // 1 KB at ~12 GB/s on a 500 MHz clock
		Barriers:           4,
	}
}

// Validate reports the first structural inconsistency in the configuration.
func (c Config) Validate() error {
	switch {
	case c.Threads <= 0:
		return fmt.Errorf("arch: Threads must be positive, got %d", c.Threads)
	case c.ThreadsPerQuad <= 0 || c.Threads%c.ThreadsPerQuad != 0:
		return fmt.Errorf("arch: Threads (%d) must be a positive multiple of ThreadsPerQuad (%d)", c.Threads, c.ThreadsPerQuad)
	case c.QuadsPerICache <= 0 || c.Quads()%c.QuadsPerICache != 0:
		return fmt.Errorf("arch: Quads (%d) must be a positive multiple of QuadsPerICache (%d)", c.Quads(), c.QuadsPerICache)
	case c.MemBanks <= 0 || c.MemBanks&(c.MemBanks-1) != 0:
		return fmt.Errorf("arch: MemBanks must be a positive power of two, got %d", c.MemBanks)
	case c.MemBankBytes <= 0:
		return fmt.Errorf("arch: MemBankBytes must be positive, got %d", c.MemBankBytes)
	case c.MemBanks*c.MemBankBytes > 1<<PhysAddrBits:
		return fmt.Errorf("arch: embedded memory %d B exceeds the %d-bit physical address space", c.MemBanks*c.MemBankBytes, PhysAddrBits)
	case c.DCacheLine <= 0 || c.DCacheLine&(c.DCacheLine-1) != 0:
		return fmt.Errorf("arch: DCacheLine must be a positive power of two, got %d", c.DCacheLine)
	case c.DCacheBytes%c.DCacheLine != 0:
		return fmt.Errorf("arch: DCacheBytes (%d) must be a multiple of DCacheLine (%d)", c.DCacheBytes, c.DCacheLine)
	case c.DCacheAssoc <= 0 || c.DCacheBytes/c.DCacheLine%c.DCacheAssoc != 0:
		return fmt.Errorf("arch: DCacheAssoc %d does not divide the %d lines of a cache", c.DCacheAssoc, c.DCacheBytes/c.DCacheLine)
	case c.ICacheLine <= 0 || c.ICacheLine&(c.ICacheLine-1) != 0:
		return fmt.Errorf("arch: ICacheLine must be a positive power of two, got %d", c.ICacheLine)
	case c.ICacheBytes%(c.ICacheLine*c.ICacheAssoc) != 0:
		return fmt.Errorf("arch: ICache geometry %d/%d/%d does not tile", c.ICacheBytes, c.ICacheLine, c.ICacheAssoc)
	case c.MemBurstBytes < c.DCacheLine:
		return fmt.Errorf("arch: MemBurstBytes (%d) must cover a cache line (%d)", c.MemBurstBytes, c.DCacheLine)
	case c.ReservedThreads < 0 || c.ReservedThreads >= c.Threads:
		return fmt.Errorf("arch: ReservedThreads %d out of range for %d threads", c.ReservedThreads, c.Threads)
	case c.Barriers <= 0 || c.Barriers > 4:
		return fmt.Errorf("arch: Barriers must be in 1..4, got %d", c.Barriers)
	case int64(c.OffChipBytes) > 2<<30:
		return fmt.Errorf("arch: OffChipBytes (%d) exceeds the 2 GB an external memory can have", c.OffChipBytes)
	case c.OffChipBytes > 0 && (c.OffChipBlock <= 0 || c.OffChipBlock > c.MemBytes()):
		return fmt.Errorf("arch: OffChipBlock (%d) must be positive and fit the embedded memory (%d B)", c.OffChipBlock, c.MemBytes())
	case c.OffChipBytes < 0 || (c.OffChipBytes > 0 && c.OffChipBytes%c.OffChipBlock != 0):
		return fmt.Errorf("arch: OffChipBytes (%d) must be a multiple of OffChipBlock (%d)", c.OffChipBytes, c.OffChipBlock)
	case c.FailedBanks < 0 || c.FailedBanks >= c.MemBanks:
		return fmt.Errorf("arch: FailedBanks %d out of range for %d banks (one must survive)", c.FailedBanks, c.MemBanks)
	case c.DisabledQuads < 0 || c.DisabledQuads >= c.Quads():
		return fmt.Errorf("arch: DisabledQuads %d out of range for %d quads (one must survive)", c.DisabledQuads, c.Quads())
	}
	return nil
}

// Quads returns the number of quads (thread groups sharing FPU + D-cache).
func (c Config) Quads() int { return c.Threads / c.ThreadsPerQuad }

// ICaches returns the number of instruction caches.
func (c Config) ICaches() int { return c.Quads() / c.QuadsPerICache }

// MemBytes returns the total embedded memory size.
func (c Config) MemBytes() int { return c.MemBanks * c.MemBankBytes }

// WorkerThreads returns the number of threads available to applications
// after the kernel reserves its own.
func (c Config) WorkerThreads() int { return c.Threads - c.ReservedThreads }

// QuadOf returns the quad that thread unit tid belongs to.
func (c Config) QuadOf(tid int) int { return tid / c.ThreadsPerQuad }

// ICacheOf returns the instruction cache serving thread unit tid.
func (c Config) ICacheOf(tid int) int { return c.QuadOf(tid) / c.QuadsPerICache }

// BankOf returns the DRAM bank holding physical address addr. The
// interleave XOR-folds upper line-address bits into the bank index so
// power-of-two strides (per-thread chunks, matrix columns) spread across
// banks instead of marching through them in lockstep; consecutive lines
// still hit consecutive banks.
func (c Config) BankOf(addr uint32) int {
	line := addr >> c.MemInterleaveShift
	return int(line^line>>4^line>>8) & (c.MemBanks - 1)
}

// PeakMemBandwidth returns the peak embedded-memory bandwidth in bytes per
// second (42.7 GB/s at the default design point).
func (c Config) PeakMemBandwidth() float64 {
	return float64(c.MemBanks) * float64(c.MemBurstBytes) / float64(c.MemBurstCycles) * ClockHz
}

// PeakCacheBandwidth returns the peak aggregate cache bandwidth in bytes
// per second (128 GB/s at the default design point).
func (c Config) PeakCacheBandwidth() float64 {
	return float64(c.Quads()) * float64(c.DCachePortBytes) * ClockHz
}

// PeakFlops returns the peak floating-point rate in FLOP/s: one FMA
// (2 FLOPs) per FPU per cycle, 32 GFlops at the default design point.
func (c Config) PeakFlops() float64 {
	return float64(c.Quads()) * 2 * ClockHz
}
