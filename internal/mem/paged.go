package mem

import (
	"encoding/binary"
	"fmt"

	"cyclops/internal/arch"
)

// Functional storage is demand-backed: the address space is a table of
// fixed-size pages and a page gets its bytes from the first write that
// lands in it. A read of a page nothing has written returns zeros and
// allocates nothing, so a run pays for the memory it touches — a STREAM
// point for two pages, a perf-runtime run for none — rather than for the
// 8 MB of the cell or the gigabytes of an external memory. DESIGN.md
// section 2 has the page-size measurement.
const (
	pageShift = 14
	pageSize  = 1 << pageShift
	pageMask  = pageSize - 1
)

// paged is the one storage type of the package, behind both Memory and
// OffChip. It checks no ranges: its owners do, against the working size,
// before they call it.
type paged struct {
	pages []*[pageSize]byte
	// spare holds zeroed pages a reset took out of the table; a write to
	// an unbacked page takes one before it allocates (back).
	spare []*[pageSize]byte
}

func newPaged(size int) paged {
	return paged{pages: make([]*[pageSize]byte, (size+pageMask)>>pageShift)}
}

// backedBytes returns the bytes of storage allocated so far.
func (s *paged) backedBytes() int {
	n := 0
	for _, pg := range s.pages {
		if pg != nil {
			n += pageSize
		}
	}
	return n
}

// page returns the page holding addr for a write, backing it first.
func (s *paged) page(addr uint32) *[pageSize]byte {
	pg := s.pages[addr>>pageShift]
	if pg == nil {
		pg = s.back(addr >> pageShift)
	}
	return pg
}

// read copies len(p) bytes at addr into p, page by page.
func (s *paged) read(addr uint32, p []byte) {
	for len(p) > 0 {
		off := addr & pageMask
		n := min(len(p), pageSize-int(off))
		if pg := s.pages[addr>>pageShift]; pg != nil {
			copy(p[:n], pg[off:])
		} else {
			clear(p[:n])
		}
		p = p[n:]
		addr += uint32(n)
	}
}

// write stores p at addr, page by page.
func (s *paged) write(addr uint32, p []byte) {
	for len(p) > 0 {
		n := copy(s.page(addr)[addr&pageMask:], p)
		p = p[n:]
		addr += uint32(n)
	}
}

// readAcross returns the n <= 8 bytes at addr as a little-endian integer
// and writeAcross stores them: the byte walk under a word access that
// straddles two pages.
func (s *paged) readAcross(addr uint32, n int) uint64 {
	var b [8]byte
	s.read(addr, b[:n])
	return binary.LittleEndian.Uint64(b[:])
}

func (s *paged) writeAcross(addr uint32, n int, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	s.write(addr, b[:n])
}

// --- Memory's functional accessors ----------------------------------------
//
// An access is one range check against the working size, then the paged
// store. An access that ends past the working size fails whole: nothing is
// read, written or backed and the code generation does not move.

// inRange reports whether the n bytes at addr lie inside working memory;
// the sum is taken in 64 bits so an address near 2^32 cannot wrap.
func (m *Memory) inRange(addr uint32, n int) bool {
	return uint64(addr)+uint64(n) <= uint64(m.size)
}

// rangeErr names the first byte of a failed access at addr that is beyond
// working memory.
func (m *Memory) rangeErr(addr uint32) error {
	return fmt.Errorf("mem: address %#x beyond working memory %#x", max(addr, m.size), m.size)
}

// BackedBytes returns how much of the embedded memory has host storage
// behind it: the pages some write has landed in, times the page size. It
// describes the simulator, not the chip, and is in no snapshot or result.
func (m *Memory) BackedBytes() int { return m.store.backedBytes() }

// Read copies len(p) bytes at physical address addr into p.
func (m *Memory) Read(addr uint32, p []byte) error {
	if !m.inRange(addr, len(p)) {
		return m.rangeErr(addr)
	}
	m.store.read(addr, p)
	return nil
}

// Write stores p at physical address addr.
func (m *Memory) Write(addr uint32, p []byte) error {
	if !m.inRange(addr, len(p)) {
		return m.rangeErr(addr)
	}
	m.noteWrite(addr, len(p))
	m.store.write(addr, p)
	return nil
}

// The word accessors take one table load and a nil check when the word lies
// inside a page, which every aligned access does. Write32 comes last: the
// write accessors are ~420 bytes shorter since a write takes spare pages
// (back), and in this order Read64 and Write64, which the STREAM kernels
// run on, kept their addresses mod 64 (DESIGN.md section 2, code placement).

// Read32 loads the 32-bit word at addr, which need not be aligned.
func (m *Memory) Read32(addr uint32) (uint32, error) {
	if !m.inRange(addr, 4) {
		return 0, m.rangeErr(addr)
	}
	off := addr & pageMask
	if off > pageSize-4 {
		return uint32(m.store.readAcross(addr, 4)), nil
	}
	if pg := m.store.pages[addr>>pageShift]; pg != nil {
		return binary.LittleEndian.Uint32(pg[off:]), nil
	}
	return 0, nil
}

// Read64 loads the 64-bit doubleword at addr, which need not be aligned.
func (m *Memory) Read64(addr uint32) (uint64, error) {
	if !m.inRange(addr, 8) {
		return 0, m.rangeErr(addr)
	}
	off := addr & pageMask
	if off > pageSize-8 {
		return m.store.readAcross(addr, 8), nil
	}
	if pg := m.store.pages[addr>>pageShift]; pg != nil {
		return binary.LittleEndian.Uint64(pg[off:]), nil
	}
	return 0, nil
}

// Write64 stores the 64-bit doubleword at addr, which need not be aligned.
func (m *Memory) Write64(addr uint32, v uint64) error {
	if !m.inRange(addr, 8) {
		return m.rangeErr(addr)
	}
	m.noteWrite(addr, 8)
	if off := addr & pageMask; off > pageSize-8 {
		m.store.writeAcross(addr, 8, v)
	} else {
		binary.LittleEndian.PutUint64(m.store.page(addr)[off:], v)
	}
	return nil
}

// Write32 stores the 32-bit word at addr, which need not be aligned.
func (m *Memory) Write32(addr uint32, v uint32) error {
	if !m.inRange(addr, 4) {
		return m.rangeErr(addr)
	}
	m.noteWrite(addr, 4)
	if off := addr & pageMask; off > pageSize-4 {
		m.store.writeAcross(addr, 4, uint64(v))
	} else {
		binary.LittleEndian.PutUint32(m.store.page(addr)[off:], v)
	}
	return nil
}

// --- Reset ------------------------------------------------------------------
//
// A chip reused from run to run is reset between them (core.Chip.ResetTo).
// The resets sit last in the package, after every accessor, so that adding
// them moved none of those in the binary (DESIGN.md section 2, code
// placement).

// reset zeroes every backed page and moves it from the table to the spare
// list. The table is all nil again, as in a new store, so a read of a page
// the next run never writes costs what it costs on a new chip: a nil check,
// no host memory touched.
func (s *paged) reset() {
	for i, pg := range s.pages {
		if pg != nil {
			clear(pg[:])
			s.spare = append(s.spare, pg)
			s.pages[i] = nil
		}
	}
}

// back backs page i for a write, with a spare page when there is one. The
// store thus holds at most as many pages as the largest footprint a run
// between two resets has had. It is never inlined, so that page, which
// every write accessor inlines, stays a table load, a nil check and a call.
//
//go:noinline
func (s *paged) back(i uint32) *[pageSize]byte {
	var pg *[pageSize]byte
	if n := len(s.spare); n > 0 {
		pg, s.spare = s.spare[n-1], s.spare[:n-1]
	} else {
		pg = new([pageSize]byte)
	}
	s.pages[i] = pg
	return pg
}

// ResetTo returns the memory to power-on state for cfg, a configuration
// that differs from the memory's own at most in its fault state
// (core.SameShape): the state New(cfg) builds, with every byte zero,
// exactly cfg's first FailedBanks banks re-mapped out of service (as
// FailBank would leave them), every bank idle, no code watched and every
// counter zero. The pages writes backed are kept, zeroed, for later writes,
// so a memory reset between runs allocates no page its earlier runs
// already had.
func (m *Memory) ResetTo(cfg arch.Config) {
	m.cfg = cfg
	m.live = m.live[:0]
	for b := cfg.FailedBanks; b < cfg.MemBanks; b++ {
		m.live = append(m.live, b)
	}
	m.size = uint32(len(m.live) * cfg.MemBankBytes)
	m.store.reset()
	clear(m.banks)
	m.watchLo, m.watchHi, m.watchSet, m.codeGen = 0, 0, false, 0
	m.LineFills, m.WriteBursts = 0, 0
}

// ResetTo returns the external memory to power-on state for cfg, a
// configuration of its shape, as Memory.ResetTo does the embedded one:
// every byte zero, the channel idle, no transfer counted, its pages kept
// for later writes. It is not inlined into core.Chip.ResetTo: inlined, it
// moved the code linked after it, the simulator's included, by 32 bytes
// mod 64 (DESIGN.md section 2, code placement).
//
//go:noinline
func (o *OffChip) ResetTo(cfg arch.Config) {
	o.store.reset()
	clear(o.block)
	*o = OffChip{cfg: cfg, store: o.store, block: o.block}
}

// HeldBytes returns the host storage the memory holds: the pages backing
// it now (BackedBytes) and the spare pages earlier resets kept.
func (m *Memory) HeldBytes() int { return m.store.heldBytes() }

// HeldBytes returns the host storage the external memory holds, as
// Memory.HeldBytes does for the embedded one.
func (o *OffChip) HeldBytes() int { return o.store.heldBytes() }

func (s *paged) heldBytes() int { return s.backedBytes() + len(s.spare)*pageSize }
