package mem

import (
	"testing"
	"testing/quick"

	"cyclops/internal/arch"
)

func TestReadWriteRoundTrip(t *testing.T) {
	m := New(arch.Default())
	if err := m.Write32(0x1234, 0xdeadbeef); err != nil {
		t.Fatal(err)
	}
	v, err := m.Read32(0x1234)
	if err != nil || v != 0xdeadbeef {
		t.Fatalf("Read32 = %#x, %v", v, err)
	}
	if err := m.Write64(0x2000, 0x0123456789abcdef); err != nil {
		t.Fatal(err)
	}
	d, err := m.Read64(0x2000)
	if err != nil || d != 0x0123456789abcdef {
		t.Fatalf("Read64 = %#x, %v", d, err)
	}
}

func TestLittleEndianLayout(t *testing.T) {
	m := New(arch.Default())
	m.Write32(0, 0x04030201)
	var b [4]byte
	m.Read(0, b[:])
	if b != [4]byte{1, 2, 3, 4} {
		t.Errorf("layout = %v, want little-endian", b)
	}
}

func TestRoundTripProperty(t *testing.T) {
	m := New(arch.Default())
	f := func(addr uint32, v uint64) bool {
		addr = addr % (m.Size() - 8) &^ 7
		if m.Write64(addr, v) != nil {
			return false
		}
		got, err := m.Read64(addr)
		return err == nil && got == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestOutOfRangeRejected(t *testing.T) {
	m := New(arch.Default())
	if _, err := m.Read32(m.Size()); err == nil {
		t.Error("read past end succeeded")
	}
	if err := m.Write32(m.Size()-2, 0); err == nil {
		t.Error("straddling write succeeded")
	}
}

func TestFillLineTiming(t *testing.T) {
	m := New(arch.Default())
	// Unloaded fill completes one burst after it starts.
	if done := m.FillLine(100, 0); done != 112 {
		t.Errorf("unloaded fill done at %d, want 112", done)
	}
	// A second fill to the same bank queues behind the first: line 17
	// hashes back to bank 0 (17 ^ 17>>4 = 16, & 15 = 0).
	if done := m.FillLine(100, 17*64); done != 124 {
		t.Errorf("queued fill done at %d, want 124", done)
	}
	// A fill to a different bank proceeds in parallel.
	if done := m.FillLine(100, 64); done != 112 {
		t.Errorf("parallel fill done at %d, want 112", done)
	}
	if m.LineFills != 3 {
		t.Errorf("LineFills = %d, want 3", m.LineFills)
	}
}

func TestPeakBandwidthIsFortyTwoGBPerSecond(t *testing.T) {
	// Saturating all 16 banks moves 64 bytes per bank per 12 cycles:
	// the Section 2.1 peak. Simulate 1200 cycles of saturation.
	m := New(arch.Default())
	cfg := arch.Default()
	var bytes int
	for round := 0; round < 100; round++ {
		for b := 0; b < cfg.MemBanks; b++ {
			m.FillLine(uint64(round*12), uint32(b*64))
			bytes += 64
		}
	}
	cycles := float64(1200)
	gbps := float64(bytes) / cycles * arch.ClockHz / 1e9
	if gbps < 42 || gbps > 43.5 {
		t.Errorf("saturated bandwidth = %.1f GB/s, want ~42.7", gbps)
	}
}

func TestWriteCombining(t *testing.T) {
	m := New(arch.Default())
	// Three 8-byte stores accumulate without a burst.
	for i := 0; i < 3; i++ {
		m.WriteThrough(uint64(i), uint32(i*8), 8)
	}
	if m.WriteBursts != 0 {
		t.Fatalf("burst fired after 24 bytes")
	}
	// The fourth completes a 32-byte block: one half-burst.
	m.WriteThrough(3, 24, 8)
	if m.WriteBursts != 1 {
		t.Fatalf("WriteBursts = %d, want 1", m.WriteBursts)
	}
	if m.BusyCycles() != 6 {
		t.Errorf("half-burst occupied %d cycles, want 6", m.BusyCycles())
	}
}

func TestStoresCompeteWithFills(t *testing.T) {
	m := New(arch.Default())
	m.WriteThrough(0, 0, 32) // occupies bank 0 cycles 0-6
	if done := m.FillLine(0, 0); done != 18 {
		t.Errorf("fill behind store burst done at %d, want 18", done)
	}
}

func TestFailBankShrinksAndRemaps(t *testing.T) {
	cfg := arch.Default()
	m := New(cfg)
	if err := m.FailBank(3); err != nil {
		t.Fatal(err)
	}
	if m.LiveBanks() != 15 {
		t.Fatalf("LiveBanks = %d", m.LiveBanks())
	}
	if m.Size() != uint32(15*cfg.MemBankBytes) {
		t.Errorf("Size = %#x, want 15 banks", m.Size())
	}
	// The address space stays contiguous: every address below Size works,
	// and no line maps to the dead bank.
	for addr := uint32(0); addr < 64*64; addr += 64 {
		b, err := m.bankOf(addr)
		if err != nil {
			t.Fatalf("addr %#x unusable: %v", addr, err)
		}
		if b == 3 {
			t.Fatalf("addr %#x mapped to failed bank", addr)
		}
	}
	// Data written after the failure still round-trips everywhere.
	for addr := uint32(0); addr < m.Size(); addr += m.Size() / 64 {
		a := addr &^ 7
		if err := m.Write64(a, uint64(a)|1); err != nil {
			t.Fatalf("write %#x: %v", a, err)
		}
	}
	for addr := uint32(0); addr < m.Size(); addr += m.Size() / 64 {
		a := addr &^ 7
		v, err := m.Read64(a)
		if err != nil || v != uint64(a)|1 {
			t.Fatalf("read %#x = %#x, %v", a, v, err)
		}
	}
	// Reads beyond the shrunken size fail.
	if _, err := m.Read32(m.Size()); err == nil {
		t.Error("read beyond shrunken memory succeeded")
	}
	// Failing the same bank twice is an error.
	if err := m.FailBank(3); err == nil {
		t.Error("double failure accepted")
	}
	if err := m.FailBank(99); err == nil {
		t.Error("nonexistent bank accepted")
	}
}

func TestOffChipTransfers(t *testing.T) {
	cfg := arch.Default()
	cfg.OffChipBytes = 1 << 20
	m := New(cfg)
	o := NewOffChip(cfg)
	if o == nil {
		t.Fatal("off-chip memory not built")
	}
	// Write a pattern into embedded memory, push it out, wipe, pull back.
	for i := uint32(0); i < uint32(cfg.OffChipBlock); i += 8 {
		m.Write64(0x4000+i, uint64(i)*3+1)
	}
	done, err := o.WriteBlock(0, m, 0x4000, 0)
	if err != nil {
		t.Fatal(err)
	}
	if done != uint64(cfg.OffChipBlockCycles) {
		t.Errorf("WriteBlock done at %d, want %d", done, cfg.OffChipBlockCycles)
	}
	for i := uint32(0); i < uint32(cfg.OffChipBlock); i += 8 {
		m.Write64(0x4000+i, 0)
	}
	done2, err := o.ReadBlock(done, m, 0, 0x4000)
	if err != nil {
		t.Fatal(err)
	}
	if done2 != 2*uint64(cfg.OffChipBlockCycles) {
		t.Errorf("second transfer serialised to %d", done2)
	}
	for i := uint32(0); i < uint32(cfg.OffChipBlock); i += 8 {
		if v, _ := m.Read64(0x4000 + i); v != uint64(i)*3+1 {
			t.Fatalf("byte %d corrupted: %#x", i, v)
		}
	}
}

func TestOffChipValidation(t *testing.T) {
	cfg := arch.Default()
	if NewOffChip(cfg) != nil {
		t.Error("off-chip built with zero size")
	}
	cfg.OffChipBytes = 1 << 20
	m := New(cfg)
	o := NewOffChip(cfg)
	if _, err := o.ReadBlock(0, m, 100, 0); err == nil {
		t.Error("unaligned external address accepted")
	}
	if _, err := o.ReadBlock(0, m, o.Size(), 0); err == nil {
		t.Error("out-of-range external address accepted")
	}
	// An embedded address past working memory fails the transfer whole.
	if _, err := o.ReadBlock(0, m, 0, m.Size()); err == nil {
		t.Error("ReadBlock to an out-of-range embedded address accepted")
	}
	if _, err := o.WriteBlock(0, m, m.Size(), 0); err == nil || o.store.backedBytes() != 0 || o.Transfers != 0 {
		t.Errorf("WriteBlock from an out-of-range embedded address: %v, %d B backed, %d transfers", err, o.store.backedBytes(), o.Transfers)
	}
	// The end of the block is computed in 64 bits: a guest can pass any
	// 32-bit external address to the off-chip syscalls.
	for _, ext := range []uint32{0xfffffc00, 0x80000000} {
		if _, err := o.ReadBlock(0, m, ext, 0); err == nil {
			t.Errorf("ReadBlock from external %#x accepted", ext)
		}
		if _, err := o.WriteBlock(0, m, 0, ext); err == nil {
			t.Errorf("WriteBlock to external %#x accepted", ext)
		}
	}
}

// TestOffChipLargestIsDemandBacked: the paper's largest external memory,
// 2 GB, is a legal configuration that costs its page table until blocks are
// written, and its last block is addressable.
func TestOffChipLargestIsDemandBacked(t *testing.T) {
	cfg := arch.Default()
	cfg.OffChipBytes = 2 << 30
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	m, o := New(cfg), NewOffChip(cfg)
	if o.Size() != 2<<30 {
		t.Fatalf("Size = %#x", o.Size())
	}
	blk := uint32(cfg.OffChipBlock)
	last := o.Size() - blk
	// An unwritten block reads as zeros over whatever the target held.
	m.Write64(0x4000, ^uint64(0))
	if _, err := o.ReadBlock(0, m, last, 0x4000); err != nil {
		t.Fatal(err)
	}
	if v, _ := m.Read64(0x4000); v != 0 {
		t.Errorf("unwritten external block read as %#x", v)
	}
	if o.store.backedBytes() != 0 {
		t.Errorf("reading backed %d B of external memory", o.store.backedBytes())
	}
	m.Write64(0x4000+blk-8, 0xfeedface)
	if _, err := o.WriteBlock(0, m, 0x4000, last); err != nil {
		t.Fatal(err)
	}
	if _, err := o.ReadBlock(0, m, last, 0x8000); err != nil {
		t.Fatal(err)
	}
	if v, _ := m.Read64(0x8000 + blk - 8); v != 0xfeedface {
		t.Errorf("last external block round-trips %#x", v)
	}
	if o.store.backedBytes() != pageSize {
		t.Errorf("one block written, %d B backed", o.store.backedBytes())
	}
}

// TestAccessEdges pins the range check every functional access shares: an
// access that ends at Size() works, one that ends past it fails whole —
// nothing read, nothing written, the code generation unmoved — and the
// end is computed in 64 bits.
func TestAccessEdges(t *testing.T) {
	m := New(arch.Default())
	size := m.Size()
	m.WatchCode(0, size) // every successful write bumps the generation

	// The last word and doubleword of memory.
	if err := m.Write64(size-8, 0x1122334455667788); err != nil {
		t.Fatalf("last doubleword: %v", err)
	}
	if v, err := m.Read64(size - 8); err != nil || v != 0x1122334455667788 {
		t.Fatalf("last doubleword reads %#x, %v", v, err)
	}
	if err := m.Write32(size-4, 0xa1b2c3d4); err != nil {
		t.Fatalf("last word: %v", err)
	}
	if v, err := m.Read32(size - 4); err != nil || v != 0xa1b2c3d4 {
		t.Fatalf("last word reads %#x, %v", v, err)
	}
	tail := make([]byte, 4)
	if err := m.Read(size-4, tail); err != nil || tail[0] != 0xd4 || tail[3] != 0xa1 {
		t.Fatalf("last bytes read %x, %v", tail, err)
	}

	// Accesses ending past Size(): a slice straddling it, a word and a
	// doubleword starting inside, and addresses whose 32-bit end would wrap.
	gen := m.CodeGen()
	buf := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	for _, addr := range []uint32{size - 4, size - 1, size, 0xfffffff8, 0xfffffffc, 0xffffffff} {
		if err := m.Write(addr, buf); err == nil {
			t.Errorf("Write of 8 bytes at %#x succeeded", addr)
		}
		if err := m.Write64(addr, 0); err == nil {
			t.Errorf("Write64 at %#x succeeded", addr)
		}
		got := []byte{9, 9, 9, 9, 9, 9, 9, 9}
		if err := m.Read(addr, got); err == nil || got[0] != 9 || got[7] != 9 {
			t.Errorf("Read of 8 bytes at %#x: %v, buffer now %v", addr, err, got)
		}
		if _, err := m.Read64(addr); err == nil {
			t.Errorf("Read64 at %#x succeeded", addr)
		}
	}
	for _, addr := range []uint32{size - 2, size, 0xfffffffe} {
		if err := m.Write32(addr, 0); err == nil {
			t.Errorf("Write32 at %#x succeeded", addr)
		}
		if _, err := m.Read32(addr); err == nil {
			t.Errorf("Read32 at %#x succeeded", addr)
		}
	}
	if m.CodeGen() != gen {
		t.Errorf("failed writes moved the code generation %d -> %d", gen, m.CodeGen())
	}
	if v, _ := m.Read32(size - 4); v != 0xa1b2c3d4 {
		t.Errorf("a failed straddling write stored its in-range prefix: last word now %#x", v)
	}

	// After a bank failure the old top of memory is out of range, although
	// the page written above still has host storage behind it.
	if err := m.FailBank(0); err != nil {
		t.Fatal(err)
	}
	if m.Size() >= size {
		t.Fatalf("Size %#x did not shrink", m.Size())
	}
	if _, err := m.Read64(size - 8); err == nil {
		t.Error("old top of memory still readable after FailBank")
	}
	if err := m.Write32(size-4, 0); err == nil {
		t.Error("old top of memory still writable after FailBank")
	}
	if err := m.Write64(m.Size()-8, 1); err != nil {
		t.Errorf("new last doubleword: %v", err)
	}
	if err := m.Write64(m.Size()-4, 1); err == nil {
		t.Error("doubleword straddling the new Size() accepted")
	}
}

// TestWatchEdges: a write bumps the code generation exactly when it
// overlaps the watched range [lo, hi), whatever its width.
func TestWatchEdges(t *testing.T) {
	const lo, hi = 0x1000, 0x1010
	writes := map[string]func(m *Memory, addr uint32) error{
		"Write32": func(m *Memory, addr uint32) error { return m.Write32(addr, 0xffffffff) },
		"Write64": func(m *Memory, addr uint32) error { return m.Write64(addr, ^uint64(0)) },
		"Write":   func(m *Memory, addr uint32) error { return m.Write(addr, []byte{1, 2, 3}) },
	}
	widths := map[string]uint32{"Write32": 4, "Write64": 8, "Write": 3}
	m := New(arch.Default())
	m.WatchCode(lo, hi)
	for name, write := range writes {
		w := widths[name]
		for _, tc := range []struct {
			what string
			addr uint32
			hit  bool
		}{
			{"ends at lo", lo - w, false},
			{"last byte is the first watched", lo - w + 1, true},
			{"starts at lo", lo, true},
			{"inside, neither edge", lo + 4, true},
			{"ends at hi", hi - w, true},
			{"first byte is the last watched", hi - 1, true},
			{"starts at hi", hi, false},
		} {
			before := m.CodeGen()
			if err := write(m, tc.addr); err != nil {
				t.Fatalf("%s %s: %v", name, tc.what, err)
			}
			if got := m.CodeGen() != before; got != tc.hit {
				t.Errorf("%s at %#x (%s): generation moved = %v, want %v", name, tc.addr, tc.what, got, tc.hit)
			}
		}
	}
	// A doubleword half inside the range bumps, as its two word writes did.
	before := m.CodeGen()
	if m.Write64(lo-4, 0); m.CodeGen() == before {
		t.Error("doubleword with only its high word watched did not bump the generation")
	}
	// No watch set, no bump.
	if m := New(arch.Default()); m.Write32(lo, 1) != nil || m.CodeGen() != 0 {
		t.Error("write with no watch moved the generation")
	}
}
