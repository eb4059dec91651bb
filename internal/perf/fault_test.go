package perf

import (
	"testing"

	"cyclops/internal/arch"
	"cyclops/internal/core"
	"cyclops/internal/obs"
)

// runFaulted runs a load/store workload over a group-one region pinned to
// quad 3's cache, optionally with that quad disabled, and returns the
// machine for inspection.
func runFaulted(t *testing.T, disable bool) *Machine {
	t.Helper()
	chip := core.MustNew(arch.Default())
	if disable {
		if err := chip.DisableQuad(3); err != nil {
			t.Fatal(err)
		}
	}
	m := New(chip)
	ea := m.MustAlloc(8192, arch.InterestGroup{Mode: arch.GroupOne, Sel: 3})
	if err := m.SpawnN(4, func(th *T, i int) {
		base := ea + uint32(i*2048)
		v := th.LoadBlock(base, 64, 8, 8)
		th.StoreBlock(base, 64, 8, 8, v)
	}); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestDisableQuadStallAccounting pins the Section 5 fault model against
// the timing ledger on the direct-execution engine: with a quad disabled
// its cache traffic redirects to the next live quad, spawned threads skip
// the dead quad, and every ledger invariant holds on the redirected run —
// per-reason buckets sum to the stall total per thread, and the remote
// transit of the pinned region shows up as hop waits.
func TestDisableQuadStallAccounting(t *testing.T) {
	healthy := runFaulted(t, false)
	faulted := runFaulted(t, true)

	for name, m := range map[string]*Machine{"healthy": healthy, "faulted": faulted} {
		tot := m.Totals()
		run, stall := tot.Run, tot.Stall
		if run == 0 {
			t.Errorf("%s: no run cycles", name)
		}
		if got := tot.Stalls.Total(); got != stall {
			t.Errorf("%s: aggregate buckets sum to %d, stall total = %d", name, got, stall)
		}
		for _, th := range m.Threads() {
			if got := th.Stalls.Total(); got != th.Stall {
				t.Errorf("%s: thread %d buckets sum to %d, Stall = %d", name, th.ID, got, th.Stall)
			}
			// The region is pinned to a cache remote from every worker
			// quad, so each thread's loads cross the switch.
			if th.MemWaits[obs.MemWaitHop] == 0 {
				t.Errorf("%s: thread %d recorded no hop waits (%v)", name, th.ID, th.MemWaits)
			}
		}
		if got := tot.MemWaits.Total(); got == 0 {
			t.Errorf("%s: no memory waits recorded", name)
		}
	}

	// No faulted-run thread may sit on the disabled quad.
	for _, th := range faulted.Threads() {
		if th.Quad == 3 {
			t.Errorf("thread %d placed on disabled quad 3", th.ID)
		}
	}
}
