package perf

import (
	"testing"

	"cyclops/internal/obs"
)

// TestPerfStallReasonsSum drives every reason the direct-execution engine
// can charge — dependences, FPU structural waits, sleep, software-barrier
// spins and store backpressure — and checks each thread's buckets sum to
// its legacy stall total.
func TestPerfStallReasonsSum(t *testing.T) {
	const n = 8
	m := NewDefault()
	b := mustSWBarrier(m, n, 4)
	data := m.SharedAlloc(n * 64)
	m.SpawnN(n, func(th *T, i int) {
		v := th.LoadF64(data + uint32(8*i))
		q := th.FDiv(v)
		r := th.FDiv(q) // divide unit still busy: structural wait
		th.StoreF64(data+uint32(8*i), r)
		th.Idle(5 + i) // explicit sleep
		th.SWBarrier(b, i)
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	var want obs.Breakdown
	for _, th := range m.Threads() {
		if got := th.Stalls.Total(); got != th.Stall {
			t.Errorf("thread %d: reasons sum to %d, Stall = %d (%v)", th.ID, got, th.Stall, th.Stalls)
		}
		want.AddAll(th.Stalls)
	}
	if got := m.Totals().Stalls; got != want {
		t.Errorf("Totals().Stalls = %v, per-thread sum = %v", got, want)
	}
	bd := m.Totals().Stalls
	for _, r := range []obs.StallReason{obs.DepStall, obs.FPUStall, obs.SleepIdle, obs.BarrierStall} {
		if bd[r] == 0 {
			t.Errorf("%v: no cycles charged (breakdown %v)", r, bd)
		}
	}
	// The engine abstracts the instruction stream: fetch cannot stall.
	if bd[obs.ICacheStall] != 0 {
		t.Errorf("ICacheStall = %d on the direct-execution engine", bd[obs.ICacheStall])
	}
}

// TestHWBarrierChargesNoBarrierStall pins the Figure 7 semantics: the
// wired-OR barrier spins on an SPR, which is run time, never a tagged
// barrier stall.
func TestHWBarrierChargesNoBarrierStall(t *testing.T) {
	const n = 4
	m := NewDefault()
	b := NewHWBarrier(n)
	m.SpawnN(n, func(th *T, i int) {
		th.Work(100 * (i + 1)) // staggered arrivals force spinning
		th.HWBarrier(b)
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if bd := m.Totals().Stalls; bd[obs.BarrierStall] != 0 {
		t.Errorf("hw barrier charged %d barrier-stall cycles, want 0 (spin is run time)", bd[obs.BarrierStall])
	}
}

// TestStoreBackpressureSplit floods the write path from many threads and
// checks the wait is split across the port and bank buckets without
// breaking the sum invariant.
func TestStoreBackpressureSplit(t *testing.T) {
	const n = 16
	m := NewDefault()
	dst := m.SharedAlloc(1 << 16)
	m.SpawnN(n, func(th *T, i int) {
		// Large non-combining strided bursts overrun the store queue.
		for rep := 0; rep < 4; rep++ {
			th.StoreBlock(dst+uint32(4*i), 256, 4, 64*n)
		}
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	bd := m.Totals().Stalls
	if bd[obs.CachePortStall]+bd[obs.BankConflictStall] == 0 {
		t.Errorf("no memory-system stalls under store flood (breakdown %v)", bd)
	}
	for _, th := range m.Threads() {
		if got := th.Stalls.Total(); got != th.Stall {
			t.Errorf("thread %d: reasons sum to %d, Stall = %d", th.ID, got, th.Stall)
		}
	}
}

// TestSnapshotAggregates checks the deterministic export derives its
// totals from the per-thread stats.
func TestSnapshotAggregates(t *testing.T) {
	m := NewDefault()
	m.SpawnN(2, func(th *T, i int) {
		v := th.LoadF64(uint32(8 * i))
		th.StoreF64(uint32(1024+8*i), v)
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	s := m.Snapshot()
	tot := m.Totals()
	run, stall := tot.Run, tot.Stall
	if s.Run != run || s.Stall != stall {
		t.Errorf("snapshot (%d, %d) != machine totals (%d, %d)", s.Run, s.Stall, run, stall)
	}
	if s.Stalls != m.Totals().Stalls {
		t.Errorf("snapshot breakdown %v != machine breakdown %v", s.Stalls, m.Totals().Stalls)
	}
	if s.Cycles != m.Elapsed() {
		t.Errorf("snapshot cycles %d != elapsed %d", s.Cycles, m.Elapsed())
	}
	if len(s.Threads) != 2 {
		t.Errorf("snapshot has %d threads, want 2", len(s.Threads))
	}
}
