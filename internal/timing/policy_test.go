package timing

import (
	"strings"
	"testing"

	"cyclops/internal/cache"
	"cyclops/internal/obs"
)

func TestParsePolicy(t *testing.T) {
	cases := []struct {
		name    string
		penalty uint64
		want    string
	}{
		{"fine", 0, "fine"},
		{"fine", 8, "fine"}, // penalty ignored
		{"", 8, "fine"},
		{"blocked", 8, "blocked/8"},
		{"blocked", 0, "blocked/0"},
		{"switchmiss", 16, "switchmiss/16"},
	}
	for _, c := range cases {
		p, err := ParsePolicy(c.name, c.penalty)
		if err != nil {
			t.Fatalf("ParsePolicy(%q, %d): %v", c.name, c.penalty, err)
		}
		if p.String() != c.want {
			t.Errorf("ParsePolicy(%q, %d) = %s, want %s", c.name, c.penalty, p, c.want)
		}
	}
	if _, err := ParsePolicy("roundrobin", 0); err == nil || !strings.Contains(err.Error(), "roundrobin") {
		t.Errorf("unknown policy error = %v", err)
	}
}

func TestPolicyTables(t *testing.T) {
	if got := (FineGrain{}).Table(); got != (PolicyTable{}) {
		t.Errorf("fine table = %+v, want all-zero", got)
	}
	if got, want := (Blocked{Pen: 5}).Table(), (PolicyTable{OnDep: 5, OnFPU: 5, OnMem: 5, OnIFetch: 5}); got != want {
		t.Errorf("blocked table = %+v, want %+v", got, want)
	}
	if got, want := (SwitchOnMiss{Pen: 5}).Table(), (PolicyTable{OnMiss: 5, OnIFetch: 5}); got != want {
		t.Errorf("switchmiss table = %+v, want %+v", got, want)
	}
	// A zero-penalty policy compiles to the fine-grained table: the basis
	// of the engines' penalty-0 convergence guarantee.
	if got := (Blocked{}).Table(); got != (PolicyTable{}) {
		t.Errorf("blocked/0 table = %+v, want all-zero", got)
	}
	if got := (SwitchOnMiss{}).Table(); got != (PolicyTable{}) {
		t.Errorf("switchmiss/0 table = %+v, want all-zero", got)
	}
}

// microTrace drives one hand-built stall sequence through a ledger: a
// dependence wait, an FPU structural wait, a store backpressure with a
// known port/bank split, a clean local-miss load, and an unmet-operand
// wait again. It returns the ledger for per-policy assertions.
func microTrace(pol PolicyTable) *Ledger {
	l := &Ledger{Pol: pol}
	now := uint64(100)
	l.ChargeRun(3)
	now = l.WaitReady(now, 110)                  // 10-cycle dep stall
	now = l.WaitFPU(now, now+4)                  // 4-cycle FPU wait
	a := cache.Access{Where: cache.StoreThrough, // store blocked 6: 2 port + 4 bank
		Wait: cache.Wait{Port: 2, Bank: 4}}
	now = l.SettleAccess(a, now, now+6)
	miss := cache.Access{Where: cache.LocalMiss} // load miss, thread not blocked
	now = l.SettleAccess(miss, now, now)
	l.WaitReady(now, now+5) // 5-cycle dep stall
	return l
}

// TestLedgerPolicyMatrix is the ledger-level unit matrix: the same
// micro-trace under each policy, asserting exact Charge-by-reason
// totals. The switch penalty lands only in the SwitchStall bucket —
// never smeared into the memory or dependence buckets — and the
// resource buckets are identical across policies.
func TestLedgerPolicyMatrix(t *testing.T) {
	if !obs.Enabled {
		t.Skip("counters compiled out")
	}
	base := obs.Breakdown{}
	base[obs.DepStall] = 15
	base[obs.FPUStall] = 4
	base[obs.CachePortStall] = 2
	base[obs.BankConflictStall] = 4
	cases := []struct {
		pol    Policy
		events uint64 // stall events the policy switches on
	}{
		{FineGrain{}, 0},
		{Blocked{Pen: 8}, 4},      // 2 dep + 1 fpu + 1 store backpressure
		{SwitchOnMiss{Pen: 8}, 1}, // the local-miss load only
		{Blocked{Pen: 0}, 0},
		{SwitchOnMiss{Pen: 0}, 0},
	}
	for _, c := range cases {
		l := microTrace(c.pol.Table())
		want := base
		want[obs.SwitchStall] = c.events * c.pol.Penalty()
		if l.Stalls != want {
			t.Errorf("%s: buckets = %v, want %v", c.pol, l.Stalls, want)
		}
		if l.Stalls.Total() != l.Stall {
			t.Errorf("%s: buckets sum %d != Stall %d", c.pol, l.Stalls.Total(), l.Stall)
		}
		if l.Run != 3 {
			t.Errorf("%s: Run = %d, want 3 (penalties are stalls, not work)", c.pol, l.Run)
		}
	}
}

// TestSettleAccessOneSwitchPerAccess pins the at-most-one rule: a
// blocking access that both backpressures and misses charges a single
// switch under the blocked policy (the backpressure event), not two.
func TestSettleAccessOneSwitchPerAccess(t *testing.T) {
	if !obs.Enabled {
		t.Skip("counters compiled out")
	}
	a := cache.Access{Where: cache.LocalMiss, Wait: cache.Wait{Port: 1, Bank: 2}}
	l := &Ledger{Pol: PolicyTable{OnMem: 8, OnMiss: 8}}
	now := l.SettleAccess(a, 100, 103)
	if l.Stalls[obs.SwitchStall] != 8 {
		t.Errorf("switch charge = %d, want one 8-cycle penalty", l.Stalls[obs.SwitchStall])
	}
	if now != 111 { // 103 freed + 8 penalty
		t.Errorf("resume = %d, want 111", now)
	}
	// The same access under switch-on-miss (no OnMem): the miss fires.
	l2 := &Ledger{Pol: PolicyTable{OnMiss: 8}}
	now = l2.SettleAccess(a, 100, 103)
	if l2.Stalls[obs.SwitchStall] != 8 || now != 111 {
		t.Errorf("miss-only: switch=%d resume=%d, want 8 and 111", l2.Stalls[obs.SwitchStall], now)
	}
}

// TestWaitFPUPolicyKeepsPipeTime pins that the FPU switch penalty delays
// the thread's resume, not the operation: WaitFPU(now, start) returns
// start+pen while callers compute the result ready-time from start.
func TestWaitFPUPolicyKeepsPipeTime(t *testing.T) {
	l := &Ledger{Pol: PolicyTable{OnFPU: 8}}
	if got := l.WaitFPU(100, 104); got != 112 {
		t.Errorf("resume = %d, want 112 (pipe start 104 + 8)", got)
	}
	// No structural wait: no charge, no penalty.
	if got := l.WaitFPU(100, 100); got != 100 || l.Stall != 4+8 {
		t.Errorf("free dispatch: resume=%d stall=%d", got, l.Stall)
	}
}
