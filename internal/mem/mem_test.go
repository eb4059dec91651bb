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
}
