package cache

import (
	"reflect"
	"testing"

	"cyclops/internal/arch"
	"cyclops/internal/mem"
)

// ResetTo returns a used cache system to the state a reset of a new one
// leaves, with the configuration's disabled quads (and only those) out of
// service. A cache its use backed keeps its own tables, cleared; one never
// used keeps sharing the zero table. Instruction caches likewise.
func TestResetMatchesNewSystem(t *testing.T) {
	cfg := arch.Default()
	cfg.DisabledQuads = 2
	m := mem.New(cfg)
	s := NewSystem(cfg, m)
	s.ResetTo(s.Cfg)
	if !s.QuadDisabled(0) || !s.QuadDisabled(1) || s.QuadDisabled(2) {
		t.Fatal("Reset did not take quads 0 and 1 out of service")
	}
	now := uint64(0)
	for i := 0; i < 64; i++ {
		now = s.Load(now, uint32(i*4160), 8, 4).Done
		s.Store(now, uint32(i*64), 8, 5)
	}
	s.PartitionScratch(6, 3)
	s.DisableQuad(7)
	ic, idle := NewICache(cfg), NewICache(cfg)
	ic.Fetch(0)
	ic.Fetch(0)
	idle.Reset()
	if idle.lru != nil {
		t.Error("Reset backed an instruction cache nothing had used")
	}
	used := 0
	for _, d := range s.Caches {
		if d.lru != nil {
			used++
		}
	}
	if used == 0 || used == len(s.Caches) {
		t.Fatalf("%d of %d caches backed; the test needs both kinds", used, len(s.Caches))
	}

	// A backed data cache holds a tag, LRU stamp and fill time per line,
	// an instruction cache a tag and stamp; an unbacked one holds nothing.
	dHeld, iHeld := 16*cfg.DCacheBytes/cfg.DCacheLine, 8*cfg.ICacheBytes/cfg.ICacheLine
	for i, d := range s.Caches {
		if want := map[bool]int{true: dHeld}[d.lru != nil]; d.HeldBytes() != want {
			t.Errorf("cache %d holds %d B, want %d", i, d.HeldBytes(), want)
		}
	}
	if ic.HeldBytes() != iHeld || idle.HeldBytes() != 0 {
		t.Errorf("instruction caches hold %d and %d B, want %d and 0", ic.HeldBytes(), idle.HeldBytes(), iHeld)
	}
	s.ResetTo(s.Cfg)
	ic.Reset()
	if ic.HeldBytes() != iHeld {
		t.Errorf("a reset instruction cache holds %d B, want the %d its tables keep", ic.HeldBytes(), iHeld)
	}
	fresh := NewSystem(cfg, m)
	fresh.ResetTo(fresh.Cfg)
	for i, d := range s.Caches {
		if d.lru != nil {
			used--
			if !allZero(d.tags) || !allZero(d.lru) || !allZero(d.readyAt) {
				t.Errorf("cache %d: tables not cleared", i)
			}
			if d.HeldBytes() != dHeld {
				t.Errorf("reset cache %d holds %d B, want the %d its tables keep", i, d.HeldBytes(), dHeld)
			}
			// The rest of the cache must match the fresh one's.
			d.tags, d.lru, d.readyAt = fresh.Caches[i].tags, nil, nil
		}
	}
	if used != 0 {
		t.Errorf("Reset dropped %d caches' tables", used)
	}
	if !reflect.DeepEqual(s, fresh) {
		t.Errorf("reset system %+v\nwant %+v", s, fresh)
	}
	if !allZero(ic.tags) || !allZero(ic.lru) || ic.stamp != 0 || ic.Hits != 0 || ic.Misses != 0 {
		t.Errorf("reset instruction cache %+v", ic)
	}
	if ic.Fetch(0) {
		t.Error("reset instruction cache still holds its line")
	}
}

func allZero[T comparable](s []T) bool {
	var zero T
	for _, v := range s {
		if v != zero {
			return false
		}
	}
	return true
}

// ResetTo brings a cache system built for one fault state to another of
// its shape: reset to a configuration with three disabled quads, it equals
// a new system of that configuration.
func TestResetToAnotherFaultState(t *testing.T) {
	cfg := arch.Default()
	to := cfg
	to.DisabledQuads = 3
	m := mem.New(cfg)
	s := NewSystem(cfg, m)
	s.ResetTo(to)
	if !s.QuadDisabled(2) || s.QuadDisabled(3) {
		t.Fatal("ResetTo did not take quads 0 to 2 out of service")
	}
	fresh := NewSystem(to, m)
	fresh.ResetTo(fresh.Cfg)
	if !reflect.DeepEqual(s, fresh) {
		t.Errorf("system reset to the fault state %+v\nwant %+v", s, fresh)
	}
}
