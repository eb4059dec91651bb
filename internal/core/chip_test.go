package core

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"cyclops/internal/arch"
	"cyclops/internal/isa"
)

func TestNewChipStructure(t *testing.T) {
	c, err := NewChip(arch.Default())
	if err != nil {
		t.Fatal(err)
	}
	if len(c.FPUs) != 32 {
		t.Errorf("FPUs = %d, want 32", len(c.FPUs))
	}
	if len(c.ICaches) != 16 {
		t.Errorf("ICaches = %d, want 16", len(c.ICaches))
	}
	if len(c.Data.Caches) != 32 {
		t.Errorf("D-caches = %d, want 32", len(c.Data.Caches))
	}
	if c.OffChip != nil {
		t.Error("off-chip memory built without configuration")
	}
	if c.UsableThreads() != 128 {
		t.Errorf("UsableThreads = %d", c.UsableThreads())
	}
}

func TestNewChipRejectsInvalidConfig(t *testing.T) {
	cfg := arch.Default()
	cfg.Threads = 0
	if _, err := NewChip(cfg); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestFPUAdderAndMultiplierAreIndependentPipes(t *testing.T) {
	var f FPU
	// An add and a multiply dispatched the same cycle both start at once.
	if s := f.Dispatch(10, isa.PipeAdd, 1); s != 10 {
		t.Errorf("add start = %d", s)
	}
	if s := f.Dispatch(10, isa.PipeMul, 1); s != 10 {
		t.Errorf("mul start = %d", s)
	}
	// A second add the same cycle waits one cycle (pipelined, 1/cycle).
	if s := f.Dispatch(10, isa.PipeAdd, 1); s != 11 {
		t.Errorf("second add start = %d, want 11", s)
	}
}

func TestFMAOccupiesBothPipes(t *testing.T) {
	var f FPU
	f.Dispatch(0, isa.PipeBoth, 1) // starts at 0
	// Adds and muls the same cycle are pushed back.
	if s := f.Dispatch(0, isa.PipeAdd, 1); s != 1 {
		t.Errorf("add behind FMA start = %d, want 1", s)
	}
	if s := f.Dispatch(0, isa.PipeMul, 1); s != 1 {
		t.Errorf("mul behind FMA start = %d, want 1", s)
	}
	// FMAs themselves complete one per cycle.
	if s := f.Dispatch(0, isa.PipeBoth, 1); s != 2 {
		t.Errorf("second FMA start = %d, want 2 (behind add+mul)", s)
	}
}

func TestDivideUnitIsNotPipelined(t *testing.T) {
	var f FPU
	f.Dispatch(0, isa.PipeDiv, 30)
	if s := f.Dispatch(1, isa.PipeDiv, 30); s != 30 {
		t.Errorf("second divide start = %d, want 30", s)
	}
	// The adder is unaffected by a busy divider.
	if s := f.Dispatch(1, isa.PipeAdd, 1); s != 1 {
		t.Errorf("add during divide start = %d, want 1", s)
	}
}

// TestDispatchRunMatchesDispatch holds DispatchRun to its definition. On
// each pipelined pipe, from random free cursors and counters, a first
// Dispatch leaves its op at start+1; from any cycle since (a switch
// penalty can delay the thread), m Dispatch calls on consecutive cycles
// and one DispatchRun must leave equal FPUs and start the last op at the
// same cycle. Any other pipe panics.
func TestDispatchRunMatchesDispatch(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, pipe := range []isa.FPUPipe{isa.PipeAdd, isa.PipeMul, isa.PipeBoth} {
		for i := 0; i < 300; i++ {
			f := FPU{
				addFree: uint64(rng.Intn(64)), mulFree: uint64(rng.Intn(64)), divFree: uint64(rng.Intn(64)),
				Ops: uint64(rng.Intn(100)), Busy: uint64(rng.Intn(100)),
				Conflicts: uint64(rng.Intn(100)), WaitCycles: uint64(rng.Intn(100)),
			}
			from := f.Dispatch(uint64(rng.Intn(64)), pipe, 1) + 1 + uint64(rng.Intn(4))
			m := 1 + rng.Intn(40)
			singles, run := f, f
			var last uint64
			for j := 0; j < m; j++ {
				last = singles.Dispatch(from+uint64(j), pipe, 1)
			}
			if got := run.DispatchRun(from, pipe, m); got != last || !reflect.DeepEqual(singles, run) {
				t.Fatalf("pipe %d, %d ops from %d: DispatchRun started the last at %d with %+v,\n"+
					"Dispatch at %d with %+v", pipe, m, from, got, run, last, singles)
			}
		}
	}
	// An op that uses no FPU starts at once and books nothing; it has no
	// run form.
	var f FPU
	if s := f.Dispatch(5, isa.PipeNone, 1); s != 5 || f != (FPU{}) {
		t.Errorf("a PipeNone Dispatch started at %d and left %+v", s, f)
	}
	for _, pipe := range []isa.FPUPipe{isa.PipeNone, isa.PipeDiv} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("DispatchRun on pipe %d did not panic", pipe)
				}
			}()
			var f FPU
			f.DispatchRun(0, pipe, 2)
		}()
	}
}

func TestDisableQuad(t *testing.T) {
	c := MustNew(arch.Default())
	if err := c.DisableQuad(2); err != nil {
		t.Fatal(err)
	}
	if err := c.DisableQuad(2); err == nil {
		t.Error("double disable accepted")
	}
	if err := c.DisableQuad(99); err == nil {
		t.Error("bad quad accepted")
	}
	if c.ThreadUsable(8) || c.ThreadUsable(11) {
		t.Error("threads of a disabled quad still usable")
	}
	if !c.ThreadUsable(12) {
		t.Error("thread of a live quad unusable")
	}
	if c.UsableThreads() != 124 {
		t.Errorf("UsableThreads = %d, want 124", c.UsableThreads())
	}
	if !c.QuadDisabled(2) || c.QuadDisabled(3) {
		t.Error("QuadDisabled bookkeeping wrong")
	}
}

// Faults named in the configuration are in force from construction, the
// same state FailBank and DisableQuad calls would have left.
func TestNewChipBootsWithConfiguredFaults(t *testing.T) {
	cfg := arch.Default()
	cfg.FailedBanks, cfg.DisabledQuads = 2, 3
	c := MustNew(cfg)
	if got := c.Mem.LiveBanks(); got != 14 {
		t.Errorf("LiveBanks = %d, want 14", got)
	}
	if got, want := c.Mem.Size(), uint32(14*cfg.MemBankBytes); got != want {
		t.Errorf("memory size = %d, want %d", got, want)
	}
	if !c.QuadDisabled(0) || !c.QuadDisabled(2) || c.QuadDisabled(3) {
		t.Error("quads 0-2 should be out of service and quad 3 alive")
	}
	if got := c.UsableThreads(); got != 116 {
		t.Errorf("UsableThreads = %d, want 116", got)
	}
	cfg.FailedBanks = cfg.MemBanks
	if _, err := NewChip(cfg); err == nil {
		t.Error("a chip with every bank failed was built")
	}
}

func TestLoadImage(t *testing.T) {
	c := MustNew(arch.Default())
	if err := c.LoadImage(0x100, []byte{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	w, err := c.Mem.Read32(0x100)
	if err != nil || w != 0x04030201 {
		t.Fatalf("image word = %#x, %v", w, err)
	}
}

func TestUtilizationReport(t *testing.T) {
	c := MustNew(arch.Default())
	// Drive some traffic through every resource class.
	c.Data.Load(0, 0x1000, 8, 0)
	c.Data.Load(50, 0x1000, 8, 0) // hit
	c.Data.Store(60, 0x2000, 8, 1)
	c.FPUs[0].Dispatch(0, isa.PipeBoth, 1)
	u := c.Utilization(1000)
	if u.Elapsed != 1000 || u.Quads != 32 {
		t.Errorf("report header wrong: %+v", u)
	}
	if u.BankBusyFrac <= 0 || u.BankBusyFrac > 1 {
		t.Errorf("bank fraction %v", u.BankBusyFrac)
	}
	if u.PortBusyFrac <= 0 {
		t.Error("port fraction zero despite traffic")
	}
	if u.DCacheHitRate <= 0 || u.DCacheHitRate >= 1 {
		t.Errorf("hit rate %v, want strictly between 0 and 1", u.DCacheHitRate)
	}
	if u.FPUOpsPerCycle <= 0 {
		t.Error("FPU ops missing")
	}
	s := u.String()
	for _, want := range []string{"memory banks", "cache ports", "FPUs", "peak 64"} {
		if !strings.Contains(s, want) {
			t.Errorf("report missing %q:\n%s", want, s)
		}
	}
	// Zero elapsed is safe.
	if z := c.Utilization(0); z.BankBusyFrac != 0 {
		t.Error("zero-window report not zeroed")
	}
}

// TestNewChipAllocationBudget: functional memory is backed by the first
// write to a page (internal/mem), and each data and instruction cache by its
// first install (internal/cache), so a fresh cell costs its ports and small
// tables, 17,088 B, not its 8 MB
// or its caches' 260 KB of tags, LRU stamps and fill times. The largest
// legal external memory adds its page table only (1 MB). Each budget is the
// measured size plus less than 25%, so eager backing of any of them cannot
// come back unnoticed. A TotalAlloc delta also counts whatever else the
// process allocates meanwhile, so each is an upper bound on what NewChip
// allocates: the least of five builds is the closest reading, and never
// an under-count.
func TestNewChipAllocationBudget(t *testing.T) {
	for _, tc := range []struct {
		offChip int
		budget  uint64
	}{{0, 20 << 10}, {2 << 30, 1280 << 10}} {
		cfg := arch.Default()
		cfg.OffChipBytes = tc.offChip
		got := uint64(math.MaxUint64)
		for range 5 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			c, err := NewChip(cfg)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			got = min(got, after.TotalAlloc-before.TotalAlloc)
			if c.Mem.BackedBytes() != 0 {
				t.Errorf("a fresh chip has %d B of memory backed", c.Mem.BackedBytes())
			}
		}
		t.Logf("NewChip with %d B off chip: %d B", tc.offChip, got)
		if got >= tc.budget {
			overBudget(t, "NewChip with %d B off chip allocated %d B, budget %d", tc.offChip, got, tc.budget)
		}
	}
}

// TestResetAllocationBudget: a run-time bank failure, then resetting the
// chip after its run, to its own configuration or to another of its
// shape, allocates nothing once an earlier reset has seen as many pages:
// the failure re-maps the banks in place, and every table and page a reset
// keeps is cleared in place or moved to a spare list that has room for it.
func TestResetAllocationBudget(t *testing.T) {
	cfg := arch.Default()
	cfg.OffChipBytes = 64 << 20
	faulty := cfg
	faulty.FailedBanks, faulty.DisabledQuads = 4, 8
	c := MustNew(cfg)
	for i, to := range []arch.Config{cfg, faulty, cfg, faulty, cfg} {
		use(t, c)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		errFail := c.Mem.FailBank(c.Cfg.MemBanks - 1)
		err := c.ResetTo(to)
		runtime.ReadMemStats(&after)
		if errFail != nil {
			t.Fatal(errFail)
		}
		if err != nil {
			t.Fatal(err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got != 0 && i > 0 {
			overBudget(t, "FailBank then ResetTo(%s) allocated %d B, want none", configName(to), got)
		}
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
