package sim

import (
	"fmt"
	"testing"

	"cyclops/internal/arch"
	"cyclops/internal/asm"
	"cyclops/internal/core"
	"cyclops/internal/obs"
)

// faultSrc loops loads and stores over a group-one effective address so
// every data access is pinned to one selectable quad cache.
func faultSrc(ea uint32) string {
	return fmt.Sprintf(`
	li   r8, %d
	li   r9, 200
loop:	lw   r10, 0(r8)
	add  r11, r11, r10
	sw   r11, 4(r8)
	addi r9, r9, -1
	bne  r9, r0, loop
	halt
`, ea)
}

// runFault assembles and runs faultSrc on thread 2, optionally disabling
// quad q first, and returns the machine for inspection.
func runFault(t *testing.T, ea uint32, disable int) *Machine {
	t.Helper()
	p, err := asm.Assemble(faultSrc(ea))
	if err != nil {
		t.Fatal(err)
	}
	chip := core.MustNew(arch.Default())
	if disable >= 0 {
		if err := chip.DisableQuad(disable); err != nil {
			t.Fatal(err)
		}
	}
	m := New(chip, nil)
	m.MaxCycles = 2_000_000
	if err := chip.LoadImage(p.Origin, p.Bytes); err != nil {
		t.Fatal(err)
	}
	if err := m.Start(2, p.Entry); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestDisableQuadStallAccounting pins the Section 5 fault model against
// the timing ledger on the instruction-level engine: disabling a quad
// redirects its cache traffic to the next live quad, and the redirected
// run's accounting keeps every ledger invariant — the per-reason buckets
// still sum to the stall total, and remote transit is still attributed
// to the hop kind of the memory-wait telemetry.
func TestDisableQuadStallAccounting(t *testing.T) {
	ea := arch.EA(arch.InterestGroup{Mode: arch.GroupOne, Sel: 3}, 0x2000)
	healthy := runFault(t, ea, -1)
	faulted := runFault(t, ea, 3)

	if c := healthy.Chip.Data.CacheFor(ea, 0); c != 3 {
		t.Fatalf("healthy chip resolves group-one(3) EA to cache %d", c)
	}
	if c := faulted.Chip.Data.CacheFor(ea, 0); c != 4 {
		t.Fatalf("faulted chip resolves group-one(3) EA to cache %d, want redirect to 4", c)
	}

	for name, m := range map[string]*Machine{"healthy": healthy, "faulted": faulted} {
		tu := m.Unit(2)
		if tu.Run == 0 || tu.Stall == 0 {
			t.Errorf("%s: run/stall = %d/%d, want both > 0", name, tu.Run, tu.Stall)
		}
		if got := tu.Stalls.Total(); got != tu.Stall {
			t.Errorf("%s: reason buckets sum to %d, Stall = %d", name, got, tu.Stall)
		}
		// The serving cache is remote from quad 0 either way, so the
		// loads' switch transit must show up as hop waits.
		if tu.MemWaits[obs.MemWaitHop] == 0 {
			t.Errorf("%s: remote accesses recorded no hop waits (%v)", name, tu.MemWaits)
		}
	}

	// The redirected cache starts cold but the access class (remote) is
	// unchanged, so the two runs issue identical instruction counts.
	if healthy.Unit(2).Insts != faulted.Unit(2).Insts {
		t.Errorf("insts diverged: healthy %d, faulted %d", healthy.Unit(2).Insts, faulted.Unit(2).Insts)
	}
}

// TestDisableQuadRejectsStart pins that a thread in a disabled quad
// cannot be started and charges nothing to any ledger.
func TestDisableQuadRejectsStart(t *testing.T) {
	chip := core.MustNew(arch.Default())
	if err := chip.DisableQuad(3); err != nil {
		t.Fatal(err)
	}
	m := New(chip, nil)
	tid := 3 * chip.Cfg.ThreadsPerQuad
	if err := m.Start(tid, 0); err == nil {
		t.Fatalf("started thread %d in disabled quad 3", tid)
	}
	tu := m.Unit(tid)
	if tu.Run != 0 || tu.Stall != 0 || tu.Insts != 0 {
		t.Errorf("rejected start charged cycles: run=%d stall=%d insts=%d", tu.Run, tu.Stall, tu.Insts)
	}
}
