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
		overBudget(t, "sim.New allocated %d B, budget 12 KB", got)
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
		overBudget(t, "building a unit allocated %d B, want at most 1 KB", got)
	}
}

// TestResetAllocationBudget: Reset allocates nothing, and a machine reset
// over a reset chip runs a program again without building a unit, a
// parking record or anything else the first run built but the compiled
// blocks, which Reset drops: the rerun allocates less than the first run
// by at least its units' 1 KB each.
func TestResetAllocationBudget(t *testing.T) {
	chip := core.MustNew(arch.Default())
	m := New(chip, nil)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	resetRun(t, m)
	runtime.ReadMemStats(&after)
	first := after.TotalAlloc - before.TotalAlloc
	units := 0
	for _, tu := range m.tus {
		if tu != nil {
			units++
		}
	}
	if err := chip.ResetTo(chip.Cfg); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&before)
	m.Reset()
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got != 0 {
		overBudget(t, "Machine.Reset allocated %d B, want none", got)
	}
	runtime.ReadMemStats(&before)
	resetRun(t, m)
	runtime.ReadMemStats(&after)
	again := after.TotalAlloc - before.TotalAlloc
	t.Logf("a run that built %d units allocated %d B, and %d B again after Reset", units, first, again)
	if again+uint64(units)<<10 > first {
		overBudget(t, "the rerun allocated %d B of the first run's %d B; its %d units are %d B", again, first, units, units<<10)
	}
}

// overBudget fails t, or under the race detector, whose instrumentation
// allocates on its own, only logs the broken budget.
func overBudget(t *testing.T, format string, args ...any) {
	t.Helper()
	if raceEnabled {
		t.Logf("race detector on, budget not enforced: "+format, args...)
		return
	}
	t.Errorf(format, args...)
}
