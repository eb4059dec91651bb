// Package mem models the embedded memory of the Cyclops chip: 16
// independent banks of 512 KB DRAM behind a memory switch (Section 2.1).
//
// The banks provide a contiguous physical address space, interleaved at
// cache-line granularity so a 64-byte line fill rides a single 12-cycle
// burst (two consecutive 32-byte blocks in burst transfer mode). The peak
// bandwidth is 16 banks x 64 B / 12 cycles = 42.7 GB/s at 500 MHz.
//
// The package also implements the Section 5 fault-tolerance behaviour —
// failed banks shrink the contiguous space and addresses are re-mapped over
// the surviving banks — and the Section 2.1 off-chip memory, which is not
// directly addressable and moves 1 KB blocks like a disk.
//
// Both memories keep their contents in one demand-backed paged store
// (paged.go): host storage is allocated by the first write to a page, so
// neither the cell's 8 MB nor an external 2 GB is allocated up front.
package mem

import (
	"fmt"
	"slices"

	"cyclops/internal/arch"
	"cyclops/internal/obs"
)

// Memory is the embedded DRAM: functional storage (paged.go) plus per-bank
// timing.
type Memory struct {
	cfg   arch.Config
	store paged

	// live maps logical bank -> physical bank after failures; len(live)
	// banks remain. size is their capacity in bytes, the working memory:
	// FailBank shrinks it, while the page table stays sized for every bank.
	live []int
	size uint32

	banks []bank

	// Code watch (see WatchCode): [watchLo, watchHi) bounds the text
	// addresses some consumer has cached decodings of; codeGen counts
	// writes landing inside the range so caches can invalidate.
	watchLo, watchHi uint32
	watchSet         bool
	codeGen          uint64

	// Stats.
	LineFills   uint64
	WriteBursts uint64
}

type bank struct {
	// freeAt is the first cycle at which the bank can start a new burst.
	freeAt uint64
	// wcbBytes counts write-through bytes accumulated toward the next
	// 32-byte write-combining burst.
	wcbBytes int
	// busy accumulates occupied cycles for utilization stats.
	busy uint64
	// grants/conflicts/waitCycles are the per-bank telemetry the
	// observability layer exports: bursts served, bursts that found the
	// bank busy, and the total queueing delay they saw.
	grants, conflicts, waitCycles uint64
}

// New builds the embedded memory for a configuration.
func New(cfg arch.Config) *Memory {
	live := make([]int, cfg.MemBanks)
	for i := range live {
		live[i] = i
	}
	return &Memory{
		cfg:   cfg,
		store: newPaged(cfg.MemBytes()),
		live:  live,
		size:  uint32(len(live) * cfg.MemBankBytes),
		banks: make([]bank, cfg.MemBanks),
	}
}

// Size returns the currently working memory size in bytes; bank failures
// reduce it (the value the SPRMemSize register reports).
func (m *Memory) Size() uint32 { return m.size }

// FailBank removes physical bank pb from service. The hardware re-maps the
// remaining banks so that the address space stays contiguous (Section 5);
// data is not preserved, as on real hardware, so this is a boot-time event.
func (m *Memory) FailBank(pb int) error {
	if pb < 0 || pb >= m.cfg.MemBanks {
		return fmt.Errorf("mem: no bank %d", pb)
	}
	for i, b := range m.live {
		if b == pb {
			// In place: the slice keeps its array, so a later ResetTo
			// refills it without allocating.
			m.live = slices.Delete(m.live, i, i+1)
			m.size = uint32(len(m.live) * m.cfg.MemBankBytes)
			return nil
		}
	}
	return fmt.Errorf("mem: bank %d already failed", pb)
}

// LiveBanks returns the number of working banks.
func (m *Memory) LiveBanks() int { return len(m.live) }

// bankOf maps a physical address to the index into m.banks, applying the
// fault re-map: the XOR-folded interleave (see arch.Config.BankOf) runs
// over the surviving banks only.
func (m *Memory) bankOf(addr uint32) (int, error) {
	if addr >= m.size {
		return 0, m.rangeErr(addr)
	}
	line := addr >> m.cfg.MemInterleaveShift
	logical := int(line^line>>4^line>>8) % len(m.live)
	return m.live[logical], nil
}

// --- Code watch ------------------------------------------------------------

// WatchCode widens the watched text range to cover [lo, hi). Consumers
// that cache translated instructions (internal/sim's compiled blocks)
// register the ranges they have cached; any later write overlapping the
// watched range bumps the generation counter returned by CodeGen,
// signalling that the cached code may be stale (self-modifying code,
// program reload).
func (m *Memory) WatchCode(lo, hi uint32) {
	if !m.watchSet {
		m.watchLo, m.watchHi, m.watchSet = lo, hi, true
		return
	}
	if lo < m.watchLo {
		m.watchLo = lo
	}
	if hi > m.watchHi {
		m.watchHi = hi
	}
}

// CodeGen returns the code-modification generation: it increments every
// time a write overlaps the watched text range.
func (m *Memory) CodeGen() uint64 { return m.codeGen }

// noteWrite bumps the code generation when the n bytes about to be
// written at addr overlap the watched range. Every write calls it, after
// its range check and before it stores.
func (m *Memory) noteWrite(addr uint32, n int) {
	if m.watchSet && addr < m.watchHi && uint64(addr)+uint64(n) > uint64(m.watchLo) {
		m.codeGen++
	}
}

// --- Timing ---------------------------------------------------------------

// BankFor returns the physical bank that times an access to addr. An
// out-of-range timing request models as a full-latency access to the first
// live bank; the functional path reports the error. The bank depends only
// on addr>>MemInterleaveShift, so a caller timing several accesses to one
// interleave unit resolves it once and passes it to FillBank/WriteBank.
func (m *Memory) BankFor(addr uint32) int {
	pb, err := m.bankOf(addr)
	if err != nil {
		return m.live[0]
	}
	return pb
}

// FillLine charges the timing of a cache-line fill starting no earlier than
// cycle now. The target bank serves bursts FIFO; the fill occupies it for
// MemBurstCycles. It returns the cycle at which the line data is complete.
func (m *Memory) FillLine(now uint64, addr uint32) uint64 {
	return m.FillBank(m.BankFor(addr), now)
}

// FillBank is FillLine on physical bank pb (see BankFor).
func (m *Memory) FillBank(pb int, now uint64) uint64 {
	b := &m.banks[pb]
	start := now
	if b.freeAt > start {
		start = b.freeAt
		b.conflicts++
		b.waitCycles += start - now
	}
	b.grants++
	b.freeAt = start + uint64(m.cfg.MemBurstCycles)
	b.busy += uint64(m.cfg.MemBurstCycles)
	m.LineFills++
	return b.freeAt
}

// WriteThrough charges the bank-side cost of a write-through store of size
// bytes. Stores retire into per-bank write-combining buffers; each
// accumulated 32-byte block costs the bank half a burst. The traffic
// competes with line fills for bank occupancy, which is what bounds
// STREAM's out-of-cache bandwidth. The returned admit cycle is when the
// store is accepted: normally now, but if the bank's backlog exceeds the
// finite write-buffer depth (StoreLagCycles) the storing thread is held
// until the backlog drains.
func (m *Memory) WriteThrough(now uint64, addr uint32, size int) (admit uint64) {
	return m.WriteBank(m.BankFor(addr), now, size)
}

// WriteBank is WriteThrough on physical bank pb (see BankFor).
func (m *Memory) WriteBank(pb int, now uint64, size int) (admit uint64) {
	b := &m.banks[pb]
	b.wcbBytes += size
	block := m.cfg.MemBurstBytes / 2 // one 32-byte block
	for b.wcbBytes >= block {
		b.wcbBytes -= block
		start := now
		if b.freeAt > start {
			start = b.freeAt
			b.conflicts++
			b.waitCycles += start - now
		}
		b.grants++
		cost := uint64(m.cfg.MemBurstCycles / 2)
		b.freeAt = start + cost
		b.busy += cost
		m.WriteBursts++
	}
	admit = now
	if lag := uint64(m.cfg.StoreLagCycles); b.freeAt > now+lag {
		admit = b.freeAt - lag
	}
	return admit
}

// Banks returns the number of physical banks (including failed ones, so
// BankStats IDs are stable across fault experiments).
func (m *Memory) Banks() int { return len(m.banks) }

// BankStats returns bank i's telemetry for the observability layer.
func (m *Memory) BankStats(i int) obs.ResourceStats {
	b := &m.banks[i]
	return obs.ResourceStats{
		Kind:       "drambank",
		ID:         i,
		Busy:       b.busy,
		Grants:     b.grants,
		Conflicts:  b.conflicts,
		WaitCycles: b.waitCycles,
	}
}

// BusyCycles returns the total occupied cycles summed over all banks.
func (m *Memory) BusyCycles() uint64 {
	var t uint64
	for i := range m.banks {
		t += m.banks[i].busy
	}
	return t
}
