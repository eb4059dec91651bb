package core

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"cyclops/internal/arch"
	"cyclops/internal/cache"
	"cyclops/internal/isa"
)

// TestResetChipEqualsNewChip: a chip driven through every kind of state it
// keeps — memory and off-chip writes, D- and I-cache installs, scratch
// partitioning, a watched-code write, barrier writes, FPU dispatch, run
// faults on top of the configured ones — and then Reset must equal a
// fresh NewChip of its configuration in every field, exported or not. The
// walk is by reflection, so a field Reset forgets fails here without an
// edit to this test. Only host backing may differ: a table or page Reset
// kept and cleared against the shared zero table or the nil a fresh chip
// has.
func TestResetChipEqualsNewChip(t *testing.T) {
	faulty := arch.Default()
	faulty.FailedBanks, faulty.DisabledQuads = 3, 2
	faulty.OffChipBytes = 64 << 20
	small := arch.Default()
	small.Threads, small.MemBanks, small.DCacheAssoc = 32, 4, 4
	for _, cfg := range []arch.Config{arch.Default(), faulty, small} {
		c := MustNew(cfg)
		dirty(t, c)
		if diffs := chipDiff(MustNew(cfg), c); len(diffs) == 0 {
			t.Fatalf("%s: the dirtied chip equals a fresh one; dirty touches nothing", configName(cfg))
		}
		c.Reset()
		if diffs := chipDiff(MustNew(cfg), c); len(diffs) > 0 {
			t.Errorf("%s: Reset left %d fields unlike NewChip's:", configName(cfg), len(diffs))
			for _, d := range diffs[:min(len(diffs), 20)] {
				t.Errorf("  %s", d)
			}
		}
		if c.Mem.HeldBytes() == 0 {
			t.Errorf("%s: Reset dropped the pages writes had backed", configName(cfg))
		}
		// A reset chip runs as a fresh one does.
		dirty(t, c)
		again := MustNew(cfg)
		dirty(t, again)
		if diffs := chipDiff(again, c); len(diffs) > 0 {
			t.Errorf("%s: after Reset the same work left %s", configName(cfg), diffs[0])
		}
	}
}

func configName(cfg arch.Config) string {
	return fmt.Sprintf("%d threads, %d banks (%d failed), %d quads disabled, %d B off chip",
		cfg.Threads, cfg.MemBanks, cfg.FailedBanks, cfg.DisabledQuads, cfg.OffChipBytes)
}

// dirty drives c through every part of its state.
func dirty(t *testing.T, c *Chip) {
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
	must(c.Mem.FailBank(cfg.MemBanks - 1))
	must(c.DisableQuad(cfg.Quads() - 2))
}

// chipDiff lists the paths at which got differs from want.
func chipDiff(want, got *Chip) []string {
	var diffs []string
	walkDiff(reflect.ValueOf(want).Elem(), reflect.ValueOf(got).Elem(), "Chip", &diffs)
	return diffs
}

// walkDiff compares a and b field by field, element by element, reading
// unexported fields too. A nil pointer or slice matches a non-nil one
// whose contents are all zero (a page or table kept by Reset against one
// never backed, a list of zeroed spare pages against none); otherwise
// shapes and values must agree.
func walkDiff(a, b reflect.Value, path string, diffs *[]string) {
	if len(*diffs) > 100 {
		return
	}
	switch a.Kind() {
	case reflect.Pointer, reflect.Slice:
		if a.IsNil() || b.IsNil() {
			if !zeroOrNil(a) || !zeroOrNil(b) {
				*diffs = append(*diffs, fmt.Sprintf("%s: nil on one side only, and the other side is not zero", path))
			}
			return
		}
		if a.Kind() == reflect.Pointer {
			walkDiff(a.Elem(), b.Elem(), "(*"+path+")", diffs)
			return
		}
		if a.Len() != b.Len() {
			*diffs = append(*diffs, fmt.Sprintf("%s: length %d, want %d", path, b.Len(), a.Len()))
			return
		}
		fallthrough
	case reflect.Array:
		if a.Type().Elem().Kind() == reflect.Uint8 && (a.Kind() == reflect.Slice || a.CanAddr()) {
			if !bytes.Equal(a.Bytes(), b.Bytes()) {
				*diffs = append(*diffs, fmt.Sprintf("%s: bytes differ", path))
			}
			return
		}
		for i := 0; i < a.Len(); i++ {
			walkDiff(a.Index(i), b.Index(i), fmt.Sprintf("%s[%d]", path, i), diffs)
		}
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			walkDiff(a.Field(i), b.Field(i), path+"."+a.Type().Field(i).Name, diffs)
		}
	case reflect.Bool:
		if a.Bool() != b.Bool() {
			*diffs = append(*diffs, fmt.Sprintf("%s: %v, want %v", path, b.Bool(), a.Bool()))
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		if a.Int() != b.Int() {
			*diffs = append(*diffs, fmt.Sprintf("%s: %d, want %d", path, b.Int(), a.Int()))
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		if a.Uint() != b.Uint() {
			*diffs = append(*diffs, fmt.Sprintf("%s: %d, want %d", path, b.Uint(), a.Uint()))
		}
	default:
		*diffs = append(*diffs, fmt.Sprintf("%s: a %s field, which this walk cannot compare", path, a.Kind()))
	}
}

// zeroOrNil reports whether v is nil or points to or holds only zeros, or
// only pointers to zeros.
func zeroOrNil(v reflect.Value) bool {
	if v.IsNil() {
		return true
	}
	if v.Kind() == reflect.Pointer {
		return v.Elem().IsZero()
	}
	for i := 0; i < v.Len(); i++ {
		e := v.Index(i)
		if e.Kind() == reflect.Pointer && !zeroOrNil(e) || e.Kind() != reflect.Pointer && !e.IsZero() {
			return false
		}
	}
	return true
}
