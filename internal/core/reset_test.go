package core

import (
	"fmt"
	"testing"

	"cyclops/internal/arch"
	"cyclops/internal/cache"
	"cyclops/internal/isa"
	"cyclops/internal/statediff"
)

// TestResetChipEqualsNewChip: a chip driven through every kind of state it
// keeps — memory and off-chip writes, D- and I-cache installs, scratch
// partitioning, a watched-code write, barrier writes, FPU dispatch, run
// faults on top of the configured ones — and then reset to its own
// configuration must equal a fresh NewChip of it in every field, exported
// or not. The walk is by reflection, so a field ResetTo forgets fails here
// without an edit to this test. Only host backing may differ: a table or
// page ResetTo kept and cleared against the shared zero table or the nil a
// fresh chip has.
func TestResetChipEqualsNewChip(t *testing.T) {
	faulty := arch.Default()
	faulty.FailedBanks, faulty.DisabledQuads = 3, 2
	faulty.OffChipBytes = 64 << 20
	small := arch.Default()
	small.Threads, small.MemBanks, small.DCacheAssoc = 32, 4, 4
	for _, cfg := range []arch.Config{arch.Default(), faulty, small} {
		c := MustNew(cfg)
		if n := c.HeldBytes(); n != 0 {
			t.Errorf("%s: a new chip holds %d B", configName(cfg), n)
		}
		dirty(t, c)
		if diffs := statediff.Diff(MustNew(cfg), c); len(diffs) == 0 {
			t.Fatalf("%s: the dirtied chip equals a fresh one; dirty touches nothing", configName(cfg))
		}
		held := c.HeldBytes()
		if err := c.ResetTo(c.Cfg); err != nil {
			t.Fatal(err)
		}
		if c.HeldBytes() != held {
			t.Errorf("%s: the chip held %d B before ResetTo and %d after; a reset keeps it all", configName(cfg), held, c.HeldBytes())
		}
		if diffs := statediff.Diff(MustNew(cfg), c); len(diffs) > 0 {
			t.Errorf("%s: ResetTo left %d fields unlike NewChip's:", configName(cfg), len(diffs))
			for _, d := range diffs[:min(len(diffs), 20)] {
				t.Errorf("  %s", d)
			}
		}
		if c.Mem.HeldBytes() == 0 {
			t.Errorf("%s: ResetTo dropped the pages writes had backed", configName(cfg))
		}
		// A reset chip runs as a fresh one does.
		dirty(t, c)
		again := MustNew(cfg)
		dirty(t, again)
		if diffs := statediff.Diff(again, c); len(diffs) > 0 {
			t.Errorf("%s: after ResetTo the same work left %s", configName(cfg), diffs[0])
		}
	}
}

func configName(cfg arch.Config) string {
	return fmt.Sprintf("%d threads, %d banks (%d failed), %d quads disabled, %d B off chip",
		cfg.Threads, cfg.MemBanks, cfg.FailedBanks, cfg.DisabledQuads, cfg.OffChipBytes)
}

// dirty drives c through every part of its state: a run's use of it
// (use), then run-time faults on top of the configured ones.
func dirty(t *testing.T, c *Chip) {
	t.Helper()
	use(t, c)
	if err := c.Mem.FailBank(c.Cfg.MemBanks - 1); err != nil {
		t.Fatal(err)
	}
	if err := c.DisableQuad(c.Cfg.Quads() - 2); err != nil {
		t.Fatal(err)
	}
}

// use drives c through everything a run can do to it.
func use(t *testing.T, c *Chip) {
	t.Helper()
	cfg := c.Cfg
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	c.Mem.WatchCode(0x1000, 0x1100)
	must(c.LoadImage(0x1000, []byte{1, 2, 3, 4, 5, 6, 7, 8}))
	for a := uint32(0); a < c.Mem.Size(); a += 1 << 18 {
		must(c.Mem.Write64(a+8, uint64(a)|1))
	}
	now := uint64(0)
	for i := 0; i < 4*cfg.Quads(); i++ {
		ea := uint32(i * 4160)
		now = c.Data.Load(now, ea, 8, i%cfg.Quads()).Done
		now = c.Data.Store(now, ea+64, 8, i%cfg.Quads()).Done
		c.Data.Atomic(now, ea, 4, (i+1)%cfg.Quads())
		c.Data.LoadRun(now, ea, 8, 8, 8, i%cfg.Quads(), cache.Penalty{})
	}
	if !c.Data.PartitionScratch(cfg.Quads()-1, 2) {
		t.Fatal("scratch partition refused")
	}
	for i, ic := range c.ICaches {
		ic.Fetch(uint32(i * 64))
		ic.Fetch(uint32(i * 64))
	}
	for q, f := range c.FPUs {
		f.Dispatch(uint64(q), isa.PipeBoth, 1)
		f.Dispatch(uint64(q), isa.PipeDiv, 30)
		f.Dispatch(uint64(q), isa.PipeDiv, 30)
	}
	c.Barrier.Write(0, 0x5)
	c.Barrier.Write(cfg.Threads-1, 0x3)
	if c.OffChip != nil {
		blk := uint32(cfg.OffChipBlock)
		_, err := c.OffChip.ReadBlock(now, c.Mem, 5*blk, 2*blk)
		must(err)
		_, err = c.OffChip.WriteBlock(now, c.Mem, 0, 3*blk) // leaves written bytes in flight
		must(err)
	}
}

// TestResetToEqualsNewChip: a chip dirtied under one configuration and
// reset to another of its shape equals NewChip of that configuration, for
// each fault configuration of the fault table (failed banks, disabled
// quads and both) reached from each other one, and a configuration of
// another shape, or an invalid one, is refused and leaves the chip alone.
func TestResetToEqualsNewChip(t *testing.T) {
	var cfgs []arch.Config
	for _, f := range [][2]int{{0, 0}, {1, 0}, {2, 0}, {4, 0}, {0, 4}, {0, 8}, {4, 8}} {
		cfg := arch.Default()
		cfg.FailedBanks, cfg.DisabledQuads = f[0], f[1]
		cfgs = append(cfgs, cfg)
	}
	c := MustNew(cfgs[len(cfgs)-1])
	for _, from := range cfgs {
		for _, to := range cfgs {
			if err := c.ResetTo(from); err != nil {
				t.Fatal(err)
			}
			dirty(t, c)
			if err := c.ResetTo(to); err != nil {
				t.Fatalf("%s -> %s: %v", configName(from), configName(to), err)
			}
			if diffs := statediff.Diff(MustNew(to), c); len(diffs) > 0 {
				t.Fatalf("%s -> %s: ResetTo left %d fields unlike NewChip's, first %s",
					configName(from), configName(to), len(diffs), diffs[0])
			}
		}
	}
	other := arch.Default()
	other.MemBanks = 8
	invalid := arch.Default()
	invalid.FailedBanks = invalid.MemBanks
	for _, cfg := range []arch.Config{other, invalid} {
		if err := c.ResetTo(c.Cfg); err != nil {
			t.Fatal(err)
		}
		dirty(t, c)
		want := c.Cfg
		if err := c.ResetTo(cfg); err == nil {
			t.Errorf("ResetTo(%s) was accepted", configName(cfg))
		}
		if c.Cfg != want || c.Mem.BackedBytes() == 0 {
			t.Errorf("a refused ResetTo(%s) changed the chip", configName(cfg))
		}
	}
}

// HeldBytes counts every store a reset keeps: the embedded and external
// memory's pages, spare ones included, and the tables of each cache a run
// backed. TestResetChipEqualsNewChip holds a new chip to none.
func TestHeldBytesCountsPagesAndCacheTables(t *testing.T) {
	cfg := arch.Default()
	cfg.OffChipBytes = 64 << 20
	c := MustNew(cfg)
	use(t, c)
	dTables, iTables := 0, 0
	for _, d := range c.Data.Caches {
		dTables += d.HeldBytes()
	}
	for _, ic := range c.ICaches {
		iTables += ic.HeldBytes()
	}
	mem, off := c.Mem.HeldBytes(), c.OffChip.HeldBytes()
	if dTables == 0 || iTables == 0 || mem == 0 || off == 0 {
		t.Fatalf("use backed %d B of data-cache tables, %d of instruction-cache tables, %d of memory and %d off chip; the test needs all four", dTables, iTables, mem, off)
	}
	if got, want := c.HeldBytes(), mem+off+dTables+iTables; got != want {
		t.Errorf("HeldBytes = %d, want %d", got, want)
	}
}
