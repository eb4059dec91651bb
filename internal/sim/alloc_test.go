package sim

import (
	"runtime"
	"testing"

	"cyclops/internal/arch"
	"cyclops/internal/core"
)

// TestNewAllocationBudget: New builds no thread unit (Unit builds one on
// first use), so a machine over the 128-unit chip costs its timing wheel
// and the unit index, 10,496 B, not 128 units of registers, scoreboard and
// ledger (1 KB each). The 12 KB budget is less than a table of one 16-byte
// entry per unit would add, so no eager per-unit state comes back
// unnoticed.
func TestNewAllocationBudget(t *testing.T) {
	chip := core.MustNew(arch.Default())
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m := New(chip, nil)
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("sim.New over %d units: %d B", chip.Cfg.Threads, got)
	if got >= 12<<10 {
		t.Errorf("sim.New allocated %d B, budget 12 KB", got)
	}
	for tid, tu := range m.tus {
		if tu != nil {
			t.Fatalf("New built unit %d", tid)
		}
	}
	// A unit fills the 1 KB allocation class exactly, its 8-byte header
	// included: one more field would cost 1152 B a unit and shift every
	// unit's fields across cache lines, which the Triads read as a few
	// percent of host time.
	runtime.ReadMemStats(&before)
	m.Unit(2)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<10 {
		t.Errorf("building a unit allocated %d B, want at most 1 KB", got)
	}
}
