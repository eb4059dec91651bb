package mem

import (
	"encoding/binary"
	"fmt"
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
		pg = new([pageSize]byte)
		s.pages[addr>>pageShift] = pg
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
// inside a page, which every aligned access does.

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
