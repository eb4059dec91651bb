package timing

import (
	"testing"

	"cyclops/internal/cache"
	"cyclops/internal/obs"
)

func TestChargeBucketsSumToStall(t *testing.T) {
	var l Ledger
	l.ChargeRun(7)
	l.Charge(obs.DepStall, 10)
	l.Charge(obs.FPUStall, 3)
	l.Charge(obs.ICacheStall, 2)
	l.Charge(obs.DepStall, 1)
	if l.Run != 7 {
		t.Fatalf("Run = %d, want 7", l.Run)
	}
	if l.Stall != 16 {
		t.Fatalf("Stall = %d, want 16", l.Stall)
	}
	if l.Stalls.Total() != l.Stall {
		t.Fatalf("buckets sum %d != Stall %d", l.Stalls.Total(), l.Stall)
	}
	if l.Stalls[obs.DepStall] != 11 || l.Stalls[obs.FPUStall] != 3 {
		t.Fatalf("buckets: %v", l.Stalls)
	}
}

func TestWaitReady(t *testing.T) {
	var l Ledger
	// Operand already ready: no charge, time unchanged.
	if now := l.WaitReady(100, 90); now != 100 || l.Stall != 0 {
		t.Fatalf("ready in past: now=%d stall=%d", now, l.Stall)
	}
	if now := l.WaitReady(100, 100); now != 100 || l.Stall != 0 {
		t.Fatalf("ready now: now=%d stall=%d", now, l.Stall)
	}
	// Operand ready later: stall for the difference as a dep stall.
	if now := l.WaitReady(100, 125); now != 125 {
		t.Fatalf("ready later: now=%d, want 125", now)
	}
	if l.Stall != 25 {
		t.Fatalf("Stall = %d, want 25", l.Stall)
	}
	if l.Stalls[obs.DepStall] != 25 {
		t.Fatalf("dep bucket = %d, want 25", l.Stalls[obs.DepStall])
	}
}

func TestChargeMemStallSplitRule(t *testing.T) {
	// Port share fits inside the blocked window: port first, bank gets
	// the remainder.
	var l Ledger
	l.ChargeMemStall(cache.Wait{Port: 3, Bank: 40}, 10)
	if l.Stalls[obs.CachePortStall] != 3 || l.Stalls[obs.BankConflictStall] != 7 {
		t.Fatalf("split: %v", l.Stalls)
	}
	if l.Stall != 10 {
		t.Fatalf("Stall = %d, want 10", l.Stall)
	}

	// Port share exceeds the window: clamp, bank gets nothing.
	var m Ledger
	m.ChargeMemStall(cache.Wait{Port: 9}, 4)
	if m.Stalls[obs.CachePortStall] != 4 || m.Stalls[obs.BankConflictStall] != 0 {
		t.Fatalf("clamp: %v", m.Stalls)
	}
	if m.Stall != 4 {
		t.Fatalf("Stall = %d, want 4", m.Stall)
	}

	// No port wait at all: everything is bank backpressure.
	var n Ledger
	n.ChargeMemStall(cache.Wait{}, 6)
	if n.Stalls[obs.BankConflictStall] != 6 || n.Stalls[obs.CachePortStall] != 0 {
		t.Fatalf("bank only: %v", n.Stalls)
	}
}

func TestObserveAccess(t *testing.T) {
	var l Ledger
	l.ObserveAccess(cache.Access{Wait: cache.Wait{Port: 2, Bank: 5, Fill: 1, Hop: 11}})
	l.ObserveAccess(cache.Access{Wait: cache.Wait{Port: 1, Hop: 11}})
	want := obs.MemWaits{
		obs.MemWaitPort: 3,
		obs.MemWaitBank: 5,
		obs.MemWaitFill: 1,
		obs.MemWaitHop:  22,
	}
	if l.MemWaits != want {
		t.Fatalf("MemWaits = %v, want %v", l.MemWaits, want)
	}
	// Observation is telemetry, never a stall charge.
	if l.Stall != 0 || l.Run != 0 {
		t.Fatalf("ObserveAccess changed totals: run=%d stall=%d", l.Run, l.Stall)
	}
}

// TestSettleRunBooksTheSums: a run's summary is booked as sums — its
// accesses' run cycles, blocked cycles already split, and one penalty per
// trigger at the ledger's own policy. (That the sums are what n single
// settles book is internal/cache's TestAccessRunMatchesSingleAccesses.)
func TestSettleRunBooksTheSums(t *testing.T) {
	l := Ledger{Pol: PolicyTable{OnMiss: 5, OnMem: 7, OnDep: 100}}
	if p := l.Penalty(); p != (cache.Penalty{Miss: 5, Mem: 7}) {
		t.Fatalf("Penalty() = %+v", p)
	}
	next := l.SettleRun(cache.RunSummary{
		N: 32, Next: 1234, Done: 1300,
		Wait:      cache.Wait{Port: 9, Bank: 40, Fill: 3, Hop: 22},
		PortStall: 4, BankStall: 30,
		MissSwitches: 2, MemSwitches: 3,
	})
	if next != 1234 {
		t.Errorf("SettleRun resumes at %d, want the run's next issue cycle 1234", next)
	}
	if l.Run != 32 || l.Stall != 4+30+2*5+3*7 {
		t.Errorf("run %d stall %d, want 32 and %d", l.Run, l.Stall, 4+30+2*5+3*7)
	}
	var want obs.Breakdown
	want[obs.CachePortStall], want[obs.BankConflictStall], want[obs.SwitchStall] = 4, 30, 2*5+3*7
	if l.Stalls != want {
		t.Errorf("stalls %v, want %v", l.Stalls, want)
	}
	if w := (obs.MemWaits{obs.MemWaitPort: 9, obs.MemWaitBank: 40, obs.MemWaitFill: 3, obs.MemWaitHop: 22}); l.MemWaits != w {
		t.Errorf("mem waits %v, want %v", l.MemWaits, w)
	}
	// An unblocked run with no trigger books run cycles and waits only.
	var q Ledger
	q.SettleRun(cache.RunSummary{N: 3, Next: 10, Wait: cache.Wait{Fill: 2}})
	if q.Run != 3 || q.Stall != 0 || q.MemWaits[obs.MemWaitFill] != 2 {
		t.Errorf("quiet run booked %+v", q)
	}
}

func TestMaxReady(t *testing.T) {
	if MaxReady(3, 9) != 9 || MaxReady(9, 3) != 9 || MaxReady(4, 4) != 4 {
		t.Fatal("MaxReady is not max")
	}
}

func TestThreadStatExport(t *testing.T) {
	var l Ledger
	l.ChargeRun(50)
	l.Charge(obs.BarrierStall, 20)
	l.ObserveAccess(cache.Access{Wait: cache.Wait{Bank: 4}})
	st := l.ThreadStat(6, 1, 123)
	if st.ID != 6 || st.Quad != 1 || st.Insts != 123 {
		t.Fatalf("identity fields: %+v", st)
	}
	if st.Run != 50 || st.Stall != 20 {
		t.Fatalf("totals: %+v", st)
	}
	if st.Stalls[obs.BarrierStall] != 20 || st.MemWaits[obs.MemWaitBank] != 4 {
		t.Fatalf("detail fields: %+v", st)
	}
}
