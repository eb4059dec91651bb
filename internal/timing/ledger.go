// Package timing owns the per-thread cycle ledger: the single
// implementation of the paper's Table 2 charge rules shared by both
// execution frontends. The instruction-level simulator (internal/sim)
// and the direct-execution runtime (internal/perf) embed a Ledger per
// thread and route every run and stall cycle through it, so the charge
// rules — the run/stall split of Figure 7, the in-order scoreboard
// dependence wait, and the port-first/bank-remainder attribution of
// memory backpressure — exist in exactly one place and every reported
// table agrees across engines by construction rather than by test.
//
// The ledger also owns memory-wait attribution: each timed data access
// carries a cache.Wait (produced once, in internal/cache) saying where
// it queued or travelled — cache port, DRAM bank, in-flight line fill,
// remote cache-switch hop — and ObserveAccess accumulates that into the
// per-thread obs.MemWaits telemetry exported by snapshots, the harness
// breakdown table and the Chrome trace counters.
//
// Everything here is allocation-free and branch-light: every charge moves
// the Run/Stall total and its per-reason bucket together, so the buckets
// always sum to the total.
package timing

import (
	"cyclops/internal/cache"
	"cyclops/internal/obs"
	"cyclops/internal/prof"
)

// ReadyTime is the shared ready-time abstraction: the cycle at which a
// produced value becomes available to dependent operations. The
// simulator's register scoreboard (TU.ready) and the runtime's dataflow
// tokens (perf.Val) both carry ReadyTimes; the ledger's WaitReady is the
// one rule that turns an unmet ReadyTime into a dependence stall.
type ReadyTime = uint64

// MaxReady returns the later of two ready-times (operand joins).
func MaxReady(a, b ReadyTime) ReadyTime {
	if a > b {
		return a
	}
	return b
}

// Ledger is one thread's cycle account: the Figure 7 run/stall totals,
// the per-reason stall buckets, and the memory-wait sub-attribution.
// The zero value is ready to use. Because every stall charge goes
// through Charge, the buckets sum to Stall exactly — the invariant is
// structural, pinned once by this package's tests.
type Ledger struct {
	// Run counts cycles the thread spent issuing; Stall counts cycles
	// it was blocked on dependences, shared resources or spin-waits.
	Run, Stall uint64
	// Stalls splits Stall by reason; buckets sum to Stall exactly.
	Stalls obs.Breakdown
	// MemWaits sub-attributes memory-system waits by location
	// (port/bank/fill/hop), accumulated per access by ObserveAccess.
	MemWaits obs.MemWaits
	// Samp, when attached, receives every charge as a profiler event:
	// the cycle sampler sees exactly the stream the ledger books, so
	// sampled attributions always agree with the totals. Nil (the
	// default) skips the forwarding.
	Samp *prof.TSampler
	// Pol is the compiled issue policy (see Policy): the switch penalty
	// applied per stall trigger. The zero value is fine-grained — no
	// penalties — so existing ledgers behave exactly as before.
	Pol PolicyTable
}

// ChargeRun books n cycles of issued work.
func (l *Ledger) ChargeRun(n uint64) {
	l.Run += n
	if l.Samp != nil {
		l.Samp.Charge(prof.KindRun, n)
	}
}

// Charge books n stall cycles to reason r: the stall total and the
// per-reason bucket move together.
func (l *Ledger) Charge(r obs.StallReason, n uint64) {
	l.Stall += n
	l.Stalls[r] += n
	if l.Samp != nil {
		l.Samp.Charge(prof.StallKind(r), n)
	}
}

// WaitReady is the in-order scoreboard rule shared by both engines: if
// an operand's ready-time lies past now, issue stalls for the difference
// (charged to DepStall) and resumes at ready — plus the issue policy's
// dependence-switch penalty when one is configured. It returns the
// possibly-advanced current time.
func (l *Ledger) WaitReady(now uint64, ready ReadyTime) uint64 {
	if ready > now {
		l.Charge(obs.DepStall, ready-now)
		if p := l.Pol.OnDep; p != 0 {
			l.ChargeSwitch(p)
			ready += p
		}
		return ready
	}
	return now
}

// ChargeSwitch books n cycles of context-switch penalty. The penalty is
// its own stall reason — never folded into the triggering wait's bucket —
// so breakdowns attribute policy overhead separately.
func (l *Ledger) ChargeSwitch(n uint64) {
	l.Charge(obs.SwitchStall, n)
}

// WaitFPU is the structural-wait rule for the quad-shared FPU: start is
// the cycle the pipe accepted the operation; any gap from now is charged
// to FPUStall, plus the policy's FPU-switch penalty. It returns the cycle
// issue resumes. The result's ready-time is the pipe's, computed from
// start — a switch penalty delays the thread, not the value in flight.
func (l *Ledger) WaitFPU(now, start uint64) uint64 {
	if start > now {
		l.Charge(obs.FPUStall, start-now)
		if p := l.Pol.OnFPU; p != 0 {
			l.ChargeSwitch(p)
			return start + p
		}
		return start
	}
	return now
}

// SettleAccess is the shared post-access rule for one timed data access:
// now is the cycle the thread would continue unstalled, free the cycle
// the memory system actually releases it (past now only for write
// backpressure and blocking atomics). The blocked cycles get the Table 2
// port-first/bank-remainder split, then the policy applies at most one
// switch penalty per access — for the backpressure event if it switches
// on memory blocking, else for a cache miss if it switches on misses.
// It returns the cycle the thread resumes issue.
func (l *Ledger) SettleAccess(a cache.Access, now, free uint64) uint64 {
	if free > now {
		l.ChargeMemStall(a.Wait, free-now)
		now = free
		if p := l.Pol.OnMem; p != 0 {
			l.ChargeSwitch(p)
			return now + p
		}
	}
	if p := l.Pol.OnMiss; p != 0 && (a.Where == cache.LocalMiss || a.Where == cache.RemoteMiss) {
		l.ChargeSwitch(p)
		now += p
	}
	return now
}

// ChargeMemStall books n cycles a thread is blocked behind the write path
// under the Table 2 split rule (cache.Wait.Split, its only implementation):
// the access's measured port-queue share to CachePortStall, the remainder
// to BankConflictStall (DRAM burst queueing).
func (l *Ledger) ChargeMemStall(w cache.Wait, n uint64) {
	port, bank := w.Split(n)
	l.Charge(obs.CachePortStall, port)
	l.Charge(obs.BankConflictStall, bank)
}

// Penalty is the part of the issue policy the memory system's run core
// applies inside a run (cache.System.LoadRun and friends): the miss and
// backpressure switch penalties. SettleRun books the triggers at the same
// penalties, so a run and its booking cannot disagree.
func (l *Ledger) Penalty() cache.Penalty {
	return cache.Penalty{Miss: l.Pol.OnMiss, Mem: l.Pol.OnMem}
}

// SettleRun books a run of accesses timed by the cache system's run core
// at Penalty(), and returns the cycle the thread issues next. Each term of
// the summary is a sum over the run's accesses of what ChargeRun,
// ObserveAccess and SettleAccess book for one: a run cycle, the wait
// attribution, each access's blocked cycles already split port-first, one
// switch penalty per trigger. Every bucket is additive, so one booking of
// the sums leaves the ledger where n single settles would; only the order
// of the charges differs, which only an attached profiler sampler can see
// (the perf runtime issues a sampled thread's accesses as runs of one).
func (l *Ledger) SettleRun(r cache.RunSummary) uint64 {
	l.ChargeRun(uint64(r.N))
	l.observe(r.Wait)
	if r.PortStall|r.BankStall != 0 {
		l.Charge(obs.CachePortStall, r.PortStall)
		l.Charge(obs.BankConflictStall, r.BankStall)
	}
	if sw := r.MissSwitches*l.Pol.OnMiss + r.MemSwitches*l.Pol.OnMem; sw != 0 {
		l.ChargeSwitch(sw)
	}
	return r.Next
}

// ObserveAccess accumulates one timed access's wait attribution into the
// per-thread MemWaits telemetry. Unlike Charge this is not a stall: load
// waits surface later as dep stalls through the scoreboard, but their
// location in the memory system is only known here.
func (l *Ledger) ObserveAccess(a cache.Access) { l.observe(a.Wait) }

func (l *Ledger) observe(w cache.Wait) {
	l.MemWaits[obs.MemWaitPort] += w.Port
	l.MemWaits[obs.MemWaitBank] += w.Bank
	l.MemWaits[obs.MemWaitFill] += w.Fill
	l.MemWaits[obs.MemWaitHop] += w.Hop
}

// Totals is the cycle accounting summed over a machine's threads: run and
// stall cycles, the stall split by reason and the memory-wait attribution.
// Both frontends' Machine.Totals return one, and it is the one form of the
// accounting from there to the served bytes: the STREAM, SPLASH-2 and job
// results embed it, and its tags are job.Result's canonical encoding.
type Totals struct {
	Run      uint64        `json:"run,omitempty"`
	Stall    uint64        `json:"stall,omitempty"`
	Stalls   obs.Breakdown `json:"stalls"`
	MemWaits obs.MemWaits  `json:"mem_waits"`
}

// Add sums one thread's ledger into the totals.
func (t *Totals) Add(l *Ledger) {
	t.Run += l.Run
	t.Stall += l.Stall
	t.Stalls.AddAll(l.Stalls)
	t.MemWaits.AddAll(l.MemWaits)
}

// Counters is the telemetry a timeline samples: the totals plus the busy
// cycles of the chip's shared resources in rs, summed per kind.
func (t Totals) Counters(rs []obs.ResourceStats) prof.Counters {
	c := prof.Counters{Run: t.Run, Stall: t.Stall, Stalls: t.Stalls, MemWaits: t.MemWaits}
	for _, r := range rs {
		switch r.Kind {
		case "cacheport":
			c.PortBusy += r.Busy
		case "drambank":
			c.BankBusy += r.Busy
		case "fpu":
			c.FPUBusy += r.Busy
		}
	}
	return c
}

// ThreadStat exports the ledger as one snapshot row.
func (l *Ledger) ThreadStat(id, quad int, insts uint64) obs.ThreadStat {
	return obs.ThreadStat{
		ID:       id,
		Quad:     quad,
		Insts:    insts,
		Run:      l.Run,
		Stall:    l.Stall,
		Stalls:   l.Stalls,
		MemWaits: l.MemWaits,
	}
}
