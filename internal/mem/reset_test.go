package mem

import (
	"reflect"
	"testing"

	"cyclops/internal/arch"
)

// ResetTo returns a used memory to the state a reset of a new one leaves,
// with the configuration's failed banks (and only those) out of service,
// and keeps its pages, zeroed and out of the page table, for later writes;
// off-chip memory likewise.
func TestResetMatchesNew(t *testing.T) {
	cfg := arch.Default()
	cfg.FailedBanks = 2
	cfg.OffChipBytes = 1 << 20
	m, o := New(cfg), NewOffChip(cfg)
	m.ResetTo(m.cfg)
	if m.LiveBanks() != cfg.MemBanks-2 || m.BankFor(0) != 2 {
		t.Fatalf("Reset left %d live banks, address 0 on bank %d; want the first two failed", m.LiveBanks(), m.BankFor(0))
	}
	m.WatchCode(0, 64)
	for a := uint32(0); a < m.Size(); a += 1 << 16 {
		if err := m.Write64(a, 0xfeed); err != nil {
			t.Fatal(err)
		}
	}
	m.FillLine(0, 64)
	m.WriteThrough(0, 128, 8)
	if err := m.FailBank(cfg.MemBanks - 1); err != nil {
		t.Fatal(err)
	}
	if _, err := o.WriteBlock(0, m, 0, 0); err != nil {
		t.Fatal(err)
	}
	held, offHeld := m.BackedBytes(), o.store.backedBytes()
	m.ResetTo(m.cfg)
	o.ResetTo(o.cfg)

	fresh, freshOff := New(cfg), NewOffChip(cfg)
	fresh.ResetTo(fresh.cfg)
	if m.BackedBytes() != 0 || o.store.backedBytes() != 0 || m.HeldBytes() != held || o.HeldBytes() != offHeld {
		t.Errorf("Reset left %d and %d B backed, %d and %d B held; want none backed, %d and %d B held",
			m.BackedBytes(), o.store.backedBytes(), m.HeldBytes(), o.HeldBytes(), held, offHeld)
	}
	for _, s := range []*paged{&m.store, &o.store} {
		for i, pg := range s.spare {
			if *pg != ([pageSize]byte{}) {
				t.Fatalf("spare page %d is not zero after Reset", i)
			}
		}
	}
	// Writes after the reset take the kept pages and allocate none.
	if n := testing.AllocsPerRun(1, func() {
		for a := uint32(0); a < m.Size(); a += 1 << 16 {
			if err := m.Write64(a, 1); err != nil {
				t.Fatal(err)
			}
		}
	}); n != 0 || m.HeldBytes() != held {
		t.Errorf("writes after Reset made %v allocations and left %d B held, want none and %d B", n, m.HeldBytes(), held)
	}
	m.ResetTo(m.cfg)
	m.store, fresh.store = paged{}, paged{}
	o.store, freshOff.store = paged{}, paged{}
	if !reflect.DeepEqual(m, fresh) {
		t.Errorf("reset memory %+v\nwant %+v", m, fresh)
	}
	if !reflect.DeepEqual(o, freshOff) {
		t.Errorf("reset off-chip memory %+v\nwant %+v", o, freshOff)
	}
}

// ResetTo brings a memory built for one fault state to another of its
// shape: a used memory and external memory reset to a configuration with
// three failed banks equal new ones of that configuration.
func TestResetToAnotherFaultState(t *testing.T) {
	cfg := arch.Default()
	cfg.OffChipBytes = 1 << 20
	to := cfg
	to.FailedBanks = 3
	m, o := New(cfg), NewOffChip(cfg)
	if err := m.Write64(0, 7); err != nil {
		t.Fatal(err)
	}
	if _, err := o.WriteBlock(0, m, 0, 0); err != nil {
		t.Fatal(err)
	}
	m.ResetTo(to)
	o.ResetTo(to)
	if m.LiveBanks() != to.MemBanks-3 || m.BankFor(0) != 3 {
		t.Fatalf("ResetTo left %d live banks, address 0 on bank %d; want the first three failed", m.LiveBanks(), m.BankFor(0))
	}
	fresh, freshOff := New(to), NewOffChip(to)
	fresh.ResetTo(fresh.cfg)
	m.store, fresh.store = paged{}, paged{}
	o.store, freshOff.store = paged{}, paged{}
	if !reflect.DeepEqual(m, fresh) {
		t.Errorf("memory reset to the fault state %+v\nwant %+v", m, fresh)
	}
	if !reflect.DeepEqual(o, freshOff) {
		t.Errorf("off-chip memory reset to the fault state %+v\nwant %+v", o, freshOff)
	}
}
