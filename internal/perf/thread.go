package perf

import (
	"cyclops/internal/cache"
	"cyclops/internal/isa"
	"cyclops/internal/obs"
	"cyclops/internal/timing"
)

// T is one simulated Cyclops thread: a virtual clock plus the in-order
// single-issue semantics of a thread unit. All methods must be called
// from the thread's own body function.
type T struct {
	m *Machine
	// ID is the hardware thread unit; Quad its quad (cache + FPU home).
	ID, Quad int

	fn func(*T)
	// next and stop drive the body's coroutine from the engine (see
	// T.coro); yield is the body's way back.
	next  func() (msg, bool)
	stop  func()
	yield func(msg) bool
	// wakes lists the threads this one unparked (barrier releases) since
	// it was last resumed; the engine queues them when it yields.
	wakes []*T

	now uint64
	// Ledger is the thread's cycle account; the charge rules live in
	// internal/timing, shared with the instruction-level simulator. Its
	// Run/Stall/Stalls/MemWaits fields are promoted into T.
	timing.Ledger
}

// Val is a dataflow token: the virtual cycle at which a produced value
// becomes available to dependent operations. Values themselves live in
// ordinary Go variables; Val carries only timing.
type Val struct {
	ready uint64
}

// Ready returns the cycle the value is available.
func (v Val) Ready() uint64 { return v.ready }

// Now returns the thread's virtual clock.
func (t *T) Now() uint64 { return t.now }

// Region opens a named profiling region and returns its closer:
//
//	defer t.Region("fft_rows")()
//
// Regions are the direct-execution engine's substitute for program
// counters: while one is open, every cycle the thread charges samples
// to the region's synthetic PC, and nesting builds the same two-level
// folded stacks the simulator derives from jal/return flow. Without an
// attached profiler (or under cyclops_noobs) the cost is one nil check.
func (t *T) Region(name string) func() {
	if !obs.Enabled || t.Samp == nil {
		return func() {}
	}
	id := t.m.Regions.Intern(name)
	prev := t.Samp.PC()
	t.Samp.Call(id)
	t.Samp.SetPC(id)
	return func() {
		t.Samp.Ret()
		t.Samp.SetPC(prev)
	}
}

// settleStore books one store's wait attribution and, when the write
// buffer backpressured, advances the clock past the blockage; the
// port/bank split and the policy's switch penalty are the ledger's
// shared rule (timing.SettleAccess).
func (t *T) settleStore(a cache.Access) {
	t.ObserveAccess(a)
	t.now = t.SettleAccess(a, t.now, a.Done)
}

// settleLoad applies the issue policy's per-access rule to a completed
// non-blocking access: the thread is already free (free == now), so only
// the miss-switch trigger can fire.
func (t *T) settleLoad(a cache.Access) {
	t.now = t.SettleAccess(a, t.now, t.now)
}

// acquire yields to the engine; on return this thread holds the globally
// minimal virtual time and may touch shared resources at t.now.
func (t *T) acquire() { t.handOff(msg{kind: msgYield, at: t.now}) }

// block parks the thread on a synchronisation object; a peer wakes it.
func (t *T) block() { t.handOff(msg{kind: msgBlock}) }

// handOff switches to the engine and returns when it resumes this thread.
// If Run is unwinding instead (deadlock, another body's panic), the body
// must not run on: it is unwound through its deferred calls.
func (t *T) handOff(mg msg) {
	if !t.yield(mg) {
		panic(stopped{})
	}
}

// waitVals charges the in-order scoreboard stall until every operand is
// ready — the ledger's WaitReady rule, applied once to the operand join
// so a policy switch is one event per join, not one per operand. For the
// fine-grained policy this books the same total as per-operand waits
// (sequential dep charges telescope to the max).
func (t *T) waitVals(vals ...Val) {
	ready := t.now
	for _, v := range vals {
		ready = timing.MaxReady(ready, v.ready)
	}
	t.now = t.WaitReady(t.now, ready)
}

// Work advances the clock by n cycles of thread-local computation
// (integer arithmetic, address generation, loop control): run cycles with
// no shared-resource interaction.
func (t *T) Work(n int) {
	t.now += uint64(n)
	t.ChargeRun(uint64(n))
}

// Idle advances the clock by n cycles counted as sleep/idle stall (used
// by synthetic workloads; real stalls come from the operations
// themselves). It models time the thread is parked, not contention for a
// hardware resource.
func (t *T) Idle(n int) {
	t.now += uint64(n)
	t.Charge(obs.SleepIdle, uint64(n))
}

// --- Memory ----------------------------------------------------------------

// load issues one timed load of size bytes.
func (t *T) load(ea uint32, size int) Val {
	t.acquire()
	a := t.m.Chip.Data.Load(t.now, ea, size, t.Quad)
	t.ObserveAccess(a)
	t.ChargeRun(1)
	t.now++
	t.settleLoad(a)
	return Val{ready: a.Done}
}

// LoadF64 times a double-precision load at effective address ea.
func (t *T) LoadF64(ea uint32) Val { return t.load(ea, 8) }

// LoadU32 times a word load.
func (t *T) LoadU32(ea uint32) Val { return t.load(ea, 4) }

// store issues one timed store after its operands are ready.
func (t *T) store(ea uint32, size int, deps ...Val) {
	t.waitVals(deps...)
	t.acquire()
	a := t.m.Chip.Data.Store(t.now, ea, size, t.Quad)
	t.ChargeRun(1)
	t.now++
	// Write-buffer backpressure.
	t.settleStore(a)
}

// StoreF64 times a double-precision store of a value produced by deps.
func (t *T) StoreF64(ea uint32, deps ...Val) { t.store(ea, 8, deps...) }

// StoreU32 times a word store.
func (t *T) StoreU32(ea uint32, deps ...Val) { t.store(ea, 4, deps...) }

// Atomic times an atomic read-modify-write (amoadd and friends) and
// returns the old-value token.
func (t *T) Atomic(ea uint32) Val {
	t.acquire()
	a := t.m.Chip.Data.Atomic(t.now, ea, 4, t.Quad)
	t.ObserveAccess(a)
	t.ChargeRun(1)
	t.now++
	t.settleLoad(a)
	return Val{ready: a.Done}
}

// bulkChunk bounds how many accesses one scheduling point may reserve.
// Larger chunks cut engine overhead; smaller ones keep same-quad threads
// interleaving fairly on the shared cache port. 32 accesses is under half
// a port-busy line fill.
const bulkChunk = 32

// bulk issues a bulk op's n accesses: per bulkChunk, one scheduling point,
// one run through the memory system's run core — run(k, c) times accesses
// k..k+c-1 from t.now — and one ledger booking of its summary. A thread
// with a profiler sampler attached issues its chunks as runs of one through
// the same core, so the sampler sees each access's charges in issue order.
// It returns the latest completion of any access, and t.now on entry when
// that is later.
func (t *T) bulk(n int, run func(k, c int) cache.RunSummary) uint64 {
	step := bulkChunk
	if obs.Enabled && t.Samp != nil {
		step = 1
	}
	done := t.now
	for i := 0; i < n; i += bulkChunk {
		end := min(i+bulkChunk, n)
		t.acquire()
		for k := i; k < end; k += step {
			r := run(k, min(step, end-k))
			t.now = t.SettleRun(r)
			done = max(done, r.Done)
			t.m.stats.Runs++
			t.m.stats.RunAccesses += uint64(r.N)
		}
	}
	return done
}

// LoadBlock times n loads of width size at stride bytes starting at ea,
// yielding to the engine every bulkChunk accesses so contending threads
// interleave. It returns the token of the last load.
func (t *T) LoadBlock(ea uint32, n, size, stride int) Val {
	return Val{ready: t.bulk(n, func(k, c int) cache.RunSummary {
		return t.m.Chip.Data.LoadRun(t.now, ea+uint32(k*stride), c, size, stride, t.Quad, t.Penalty())
	})}
}

// StoreBlock times n stores of width size at stride bytes, first waiting
// for deps, yielding every bulkChunk accesses.
func (t *T) StoreBlock(ea uint32, n, size, stride int, deps ...Val) {
	t.waitVals(deps...)
	t.bulk(n, func(k, c int) cache.RunSummary {
		return t.m.Chip.Data.StoreRun(t.now, ea+uint32(k*stride), c, size, stride, t.Quad, t.Penalty())
	})
}

// LoadGather times loads from arbitrary effective addresses, yielding
// every bulkChunk accesses, and returns the latest-completing token.
func (t *T) LoadGather(eas []uint32, size int) Val {
	return Val{ready: t.bulk(len(eas), func(k, c int) cache.RunSummary {
		return t.m.Chip.Data.LoadGather(t.now, eas[k:k+c], size, t.Quad, t.Penalty())
	})}
}

// StoreScatter times stores to arbitrary effective addresses (the radix
// permute pattern), yielding every bulkChunk accesses.
func (t *T) StoreScatter(eas []uint32, size int, deps ...Val) {
	t.waitVals(deps...)
	t.bulk(len(eas), func(k, c int) cache.RunSummary {
		return t.m.Chip.Data.StoreScatter(t.now, eas[k:k+c], size, t.Quad, t.Penalty())
	})
}

// --- Floating point ---------------------------------------------------------

// fp dispatches one FP operation to the quad's shared FPU.
func (t *T) fp(pipe isa.FPUPipe, exec, extra int, ops ...Val) Val {
	t.waitVals(ops...)
	t.acquire()
	fpu := t.m.Chip.FPUs[t.Quad]
	start := fpu.Dispatch(t.now, pipe, exec)
	t.now = t.WaitFPU(t.now, start)
	t.ChargeRun(1)
	t.now++
	return Val{ready: start + uint64(exec+extra)}
}

// FAdd times a double-precision addition (or subtraction, negation,
// comparison — anything on the adder pipe).
func (t *T) FAdd(ops ...Val) Val {
	l := &t.m.Chip.Cfg.Latencies
	return t.fp(isa.PipeAdd, l.FPExec, l.FPLatency, ops...)
}

// FMul times a double-precision multiplication.
func (t *T) FMul(ops ...Val) Val {
	l := &t.m.Chip.Cfg.Latencies
	return t.fp(isa.PipeMul, l.FPExec, l.FPLatency, ops...)
}

// FMA times a fused multiply-add (both pipes, 9-cycle latency).
func (t *T) FMA(ops ...Val) Val {
	l := &t.m.Chip.Cfg.Latencies
	return t.fp(isa.PipeBoth, l.FMAExec, l.FMALatency, ops...)
}

// FDiv times a double-precision division on the non-pipelined unit.
func (t *T) FDiv(ops ...Val) Val {
	l := &t.m.Chip.Cfg.Latencies
	return t.fp(isa.PipeDiv, l.FPDivExec, 0, ops...)
}

// FSqrt times a double-precision square root.
func (t *T) FSqrt(ops ...Val) Val {
	l := &t.m.Chip.Cfg.Latencies
	return t.fp(isa.PipeDiv, l.FPSqrtExec, 0, ops...)
}

// FPBlock times n independent pipelined operations on pipe (bulk
// arithmetic such as an n-body interaction list), yielding every
// bulkChunk operations, and returns the last result token.
func (t *T) FPBlock(pipe isa.FPUPipe, n int, ops ...Val) Val {
	if n <= 0 {
		return Val{ready: t.now}
	}
	t.waitVals(ops...)
	l := &t.m.Chip.Cfg.Latencies
	fpu := t.m.Chip.FPUs[t.Quad]
	exec, extra := l.FPExec, l.FPLatency
	if pipe == isa.PipeBoth {
		exec, extra = l.FMAExec, l.FMALatency
	}
	last := Val{ready: t.now}
	for i := 0; i < n; i += bulkChunk {
		c := n - i
		if c > bulkChunk {
			c = bulkChunk
		}
		t.acquire()
		for k := 0; k < c; k++ {
			start := fpu.Dispatch(t.now, pipe, exec)
			t.now = t.WaitFPU(t.now, start)
			t.ChargeRun(1)
			t.now++
			last = Val{ready: start + uint64(exec+extra)}
		}
	}
	return last
}
