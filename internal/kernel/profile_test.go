package kernel

import (
	"testing"

	"cyclops/internal/arch"
	"cyclops/internal/asm"
	"cyclops/internal/core"
	"cyclops/internal/prof"
)

// The profiler's accounting must reconcile exactly with the timing
// ledger: at a sampling interval of 1 every charged cycle takes a
// sample, so per-unit sample counts equal the unit's run+stall total.
func TestProfilerReconcilesWithLedger(t *testing.T) {
	p, err := asm.Assemble(hwBarrierSrc(4, 8))
	if err != nil {
		t.Fatal(err)
	}
	chip := core.MustNew(arch.Default())
	k := New(chip)
	k.Machine().MaxCycles = 5_000_000
	pr := prof.New(1)
	k.Machine().AttachProfile(pr)
	if err := k.Boot(p); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	samples := pr.SamplesByTU()
	var active int
	for tid := range k.Machine().Chip.Cfg.Threads {
		tu := k.Machine().Unit(tid)
		total := tu.Run + tu.Stall
		var got uint64
		if tu.ID < len(samples) {
			got = samples[tu.ID]
		}
		if got != total {
			t.Errorf("TU %d: %d samples at interval 1, ledger has run+stall = %d", tu.ID, got, total)
		}
		if total > 0 {
			active++
		}
	}
	if active < 4 {
		t.Fatalf("only %d units were active; the barrier program should run 4", active)
	}
	if pr.TotalSamples() == 0 {
		t.Fatal("profiler took no samples")
	}
}

// Timeline interval deltas must telescope to the end-of-run counters:
// summing every row reproduces the snapshot's run/stall totals, the
// per-reason breakdown, the memory-wait attribution and the resource
// busy totals exactly.
func TestTimelineSumMatchesSnapshot(t *testing.T) {
	p, err := asm.Assemble(swBarrierSrc(4, 8))
	if err != nil {
		t.Fatal(err)
	}
	chip := core.MustNew(arch.Default())
	k := New(chip)
	k.Machine().MaxCycles = 5_000_000
	tl := prof.NewTimeline(64)
	k.Machine().AttachTimeline(tl)
	if err := k.Boot(p); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(tl.Rows()) == 0 {
		t.Fatal("timeline recorded no intervals")
	}
	sum := tl.Sum()

	var run, stall uint64
	for tid := range k.Machine().Chip.Cfg.Threads {
		tu := k.Machine().Unit(tid)
		run += tu.Run
		stall += tu.Stall
	}
	if sum.Run != run || sum.Stall != stall {
		t.Errorf("timeline sum run/stall = %d/%d, ledger totals %d/%d", sum.Run, sum.Stall, run, stall)
	}
	if sum.Stalls != k.Machine().Totals().Stalls {
		t.Errorf("timeline stall breakdown %v != snapshot %v", sum.Stalls, k.Machine().Totals().Stalls)
	}
	if sum.MemWaits != k.Machine().Totals().MemWaits {
		t.Errorf("timeline memwaits %v != snapshot %v", sum.MemWaits, k.Machine().Totals().MemWaits)
	}
	var port, bank, fpu uint64
	for _, rs := range chip.ResourceStats() {
		switch rs.Kind {
		case "cacheport":
			port += rs.Busy
		case "drambank":
			bank += rs.Busy
		case "fpu":
			fpu += rs.Busy
		}
	}
	if sum.PortBusy != port || sum.BankBusy != bank || sum.FPUBusy != fpu {
		t.Errorf("timeline busy %d/%d/%d != resource stats %d/%d/%d",
			sum.PortBusy, sum.BankBusy, sum.FPUBusy, port, bank, fpu)
	}
}
