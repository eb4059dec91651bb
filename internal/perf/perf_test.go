package perf

import (
	"strings"
	"testing"

	"cyclops/internal/arch"
	"cyclops/internal/core"
)

func TestSingleThreadTimings(t *testing.T) {
	m := NewDefault()
	ea := m.SharedAlloc(4096)
	var loadDone, addDone uint64
	m.Spawn(func(th *T) {
		v := th.LoadF64(ea)
		loadDone = v.Ready()
		w := th.FAdd(v, v)
		addDone = w.Ready()
		th.StoreF64(ea+64, w)
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	// Cold load: miss (24) plus possible remote classification.
	if loadDone < 24 || loadDone > 40 {
		t.Errorf("cold load ready at %d, want a Table 2 miss", loadDone)
	}
	// The dependent add issues after the load and takes 1+5.
	if addDone < loadDone+6 {
		t.Errorf("dependent fadd ready at %d, load at %d", addDone, loadDone)
	}
}

func TestScoreboardStallsOnDependence(t *testing.T) {
	m := NewDefault()
	ea := m.SharedAlloc(4096)
	var chain, indep *T
	chain, _ = m.Spawn(func(th *T) {
		v := th.LoadF64(ea)
		for i := 0; i < 10; i++ {
			v = th.FAdd(v, v) // serial dependence: 6 cycles apiece
		}
	})
	m2 := NewDefault()
	ea2 := m2.SharedAlloc(4096)
	indep, _ = m2.Spawn(func(th *T) {
		v := th.LoadF64(ea2)
		for i := 0; i < 10; i++ {
			th.FAdd(v, v) // independent: issue every cycle
		}
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if err := m2.Run(); err != nil {
		t.Fatal(err)
	}
	if chain.Stall <= indep.Stall+40 {
		t.Errorf("dependent chain stalled %d, independent %d; want ~50 cycle gap",
			chain.Stall, indep.Stall)
	}
}

func TestFPUSharedWithinQuad(t *testing.T) {
	// Four threads in one quad all hammering the adder make less
	// progress per cycle than four threads across four quads.
	elapsed := func(balanced bool) uint64 {
		m := NewDefault()
		m.Balanced = balanced
		m.SpawnN(4, func(th *T, i int) {
			v := Val{}
			for k := 0; k < 200; k++ {
				th.FAdd(v) // independent adds: pipe-bound
			}
		})
		if err := m.Run(); err != nil {
			t.Fatal(err)
		}
		return m.Elapsed()
	}
	sameQuad := elapsed(false) // sequential: threads 2..5 (quad 0 + one in quad 1)
	spread := elapsed(true)    // balanced: four different quads
	if spread*2 > sameQuad {
		t.Errorf("quad-shared FPU contention missing: same-quad %d vs spread %d cycles",
			sameQuad, spread)
	}
}

func TestHWBarrierSynchronises(t *testing.T) {
	m := NewDefault()
	const n = 16
	b := NewHWBarrier(n)
	after := make([]uint64, n)
	m.SpawnN(n, func(th *T, i int) {
		th.Work(10 * (i + 1)) // staggered arrivals
		th.HWBarrier(b)
		after[i] = th.Now()
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	// All threads resume at the same cycle (+ the constant exit cost).
	for i := 1; i < n; i++ {
		if after[i] != after[0] {
			t.Fatalf("thread %d released at %d, thread 0 at %d", i, after[i], after[0])
		}
	}
	// Release happens just after the slowest arrival.
	if after[0] < 10*n {
		t.Errorf("released at %d, before the last arrival at %d", after[0], 10*n)
	}
}

func TestHWBarrierSpinIsRunCycles(t *testing.T) {
	m := NewDefault()
	b := NewHWBarrier(2)
	var fast *T
	fast, _ = m.Spawn(func(th *T) {
		th.HWBarrier(b)
	})
	m.Spawn(func(th *T) {
		th.Work(500)
		th.HWBarrier(b)
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	// The fast thread spun ~500 cycles on its own SPR: run, not stall.
	if fast.Run < 450 {
		t.Errorf("hw barrier spin counted %d run cycles, want ~500", fast.Run)
	}
	if fast.Stall > 50 {
		t.Errorf("hw barrier charged %d stall cycles, want ~0", fast.Stall)
	}
}

func TestHWBarrierReusableAcrossPhases(t *testing.T) {
	m := NewDefault()
	const n, phases = 8, 5
	b := NewHWBarrier(n)
	counts := make([]int, n)
	m.SpawnN(n, func(th *T, i int) {
		for p := 0; p < phases; p++ {
			th.Work(i + 1)
			th.HWBarrier(b)
			counts[i]++
		}
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	for i, c := range counts {
		if c != phases {
			t.Errorf("thread %d completed %d phases", i, c)
		}
	}
}

func TestSWBarrierSynchronises(t *testing.T) {
	m := NewDefault()
	const n = 16
	b := NewSWBarrier(m, n, 4)
	order := []int{}
	m.SpawnN(n, func(th *T, i int) {
		th.Work(5 * (n - i)) // reverse-staggered
		th.SWBarrier(b, i)
		order = append(order, i)
		th.Work(1)
		th.SWBarrier(b, i) // second phase: sense reversal works
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != n {
		t.Fatalf("%d of %d threads passed the barrier", len(order), n)
	}
}

func TestSWBarrierCostsMoreStallThanHW(t *testing.T) {
	// Figure 7's premise: software barriers stall threads on memory;
	// the hardware barrier converts that into cheap spin (run) cycles.
	const n, phases = 32, 6
	runHW := func() (run, stall uint64) {
		m := NewDefault()
		b := NewHWBarrier(n)
		m.SpawnN(n, func(th *T, i int) {
			for p := 0; p < phases; p++ {
				th.Work(20 + i)
				th.HWBarrier(b)
			}
		})
		if err := m.Run(); err != nil {
			t.Fatal(err)
		}
		s := m.Totals()
		return s.Run, s.Stall
	}
	runSW := func() (run, stall uint64) {
		m := NewDefault()
		b := NewSWBarrier(m, n, 4)
		m.SpawnN(n, func(th *T, i int) {
			for p := 0; p < phases; p++ {
				th.Work(20 + i)
				th.SWBarrier(b, i)
			}
		})
		if err := m.Run(); err != nil {
			t.Fatal(err)
		}
		s := m.Totals()
		return s.Run, s.Stall
	}
	hwRun, hwStall := runHW()
	swRun, swStall := runSW()
	if swStall <= hwStall {
		t.Errorf("sw barrier stalls (%d) not above hw (%d)", swStall, hwStall)
	}
	if hwRun <= swRun/4 {
		t.Errorf("hw barrier run cycles (%d) suspiciously low vs sw (%d)", hwRun, swRun)
	}
}

func TestDeterministicElapsed(t *testing.T) {
	run := func() uint64 {
		m := NewDefault()
		b := NewHWBarrier(8)
		ea := m.SharedAlloc(1 << 16)
		m.SpawnN(8, func(th *T, i int) {
			for k := 0; k < 50; k++ {
				v := th.LoadF64(ea + uint32((i*50+k)*8))
				w := th.FMA(v)
				th.StoreF64(ea+uint32((i*50+k)*8), w)
				if k%10 == 9 {
					th.HWBarrier(b)
				}
			}
		})
		if err := m.Run(); err != nil {
			t.Fatal(err)
		}
		return m.Elapsed()
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("two identical runs took %d and %d cycles", a, b)
	}
}

func TestBlockOpsMatchSingleOps(t *testing.T) {
	// A LoadBlock over a line costs the same as the equivalent loop of
	// single loads when no other thread interferes.
	single := func() uint64 {
		m := NewDefault()
		ea := m.SharedAlloc(4096)
		m.Spawn(func(th *T) {
			var v Val
			for i := 0; i < 32; i++ {
				v = th.LoadF64(ea + uint32(8*i))
			}
			th.waitVals(v)
		})
		if err := m.Run(); err != nil {
			t.Fatal(err)
		}
		return m.Elapsed()
	}()
	block := func() uint64 {
		m := NewDefault()
		ea := m.SharedAlloc(4096)
		m.Spawn(func(th *T) {
			v := th.LoadBlock(ea, 32, 8, 8)
			th.waitVals(v)
		})
		if err := m.Run(); err != nil {
			t.Fatal(err)
		}
		return m.Elapsed()
	}()
	diff := int64(single) - int64(block)
	if diff < -4 || diff > 4 {
		t.Errorf("block load %d cycles vs singles %d", block, single)
	}
}

func TestAllocator(t *testing.T) {
	m := NewDefault()
	a := m.SharedAlloc(100)
	b := m.SharedAlloc(100)
	if arch.Phys(a)%64 != 0 || arch.Phys(b)%64 != 0 {
		t.Error("allocations not line-aligned")
	}
	if b <= a || arch.Phys(b)-arch.Phys(a) < 100 {
		t.Error("allocations overlap")
	}
	if arch.GroupOf(a).Mode != arch.GroupAll {
		t.Error("SharedAlloc did not use the chip-wide group")
	}
	for _, n := range []int{64 << 20, 1 << 32, 16 << 30, -1} { // two wrap to small uint32s
		if _, err := m.Alloc(n, arch.InterestGroup{}); err == nil {
			t.Errorf("allocation of %d bytes accepted", n)
		}
	}
	own, err := m.Alloc(64, arch.InterestGroup{Mode: arch.GroupOwn})
	if err != nil || arch.GroupOf(own).Mode != arch.GroupOwn {
		t.Error("own-cache allocation broken")
	}
}

func TestSpawnLimits(t *testing.T) {
	m := NewDefault()
	if err := m.SpawnN(126, func(th *T, i int) {}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Spawn(func(th *T) {}); err == nil {
		t.Error("127th worker accepted (two units are reserved)")
	}
}

func TestSpawnSkipsDisabledQuads(t *testing.T) {
	chip := core.MustNew(arch.Default())
	chip.DisableQuad(0) // removes units 0..3, including both reserved
	m := New(chip)
	th, err := m.Spawn(func(t *T) {})
	if err != nil {
		t.Fatal(err)
	}
	if th.Quad == 0 {
		t.Error("thread placed on disabled quad")
	}
}

func TestDeadlockDetected(t *testing.T) {
	m := NewDefault()
	b := NewHWBarrier(3) // only 2 threads will arrive
	m.SpawnN(2, func(th *T, i int) {
		th.HWBarrier(b)
	})
	err := m.Run()
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Errorf("missing deadlock detection: %v", err)
	}
}

func TestRunWithoutThreads(t *testing.T) {
	m := NewDefault()
	if err := m.Run(); err == nil {
		t.Error("Run with no threads succeeded")
	}
}

func TestWorkAndStallAccounting(t *testing.T) {
	m := NewDefault()
	var th *T
	th, _ = m.Spawn(func(t *T) {
		t.Work(100)
		t.Idle(50)
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if th.Run != 100 || th.Stall != 50 {
		t.Errorf("run/stall = %d/%d, want 100/50", th.Run, th.Stall)
	}
	if th.Now() != 150 {
		t.Errorf("now = %d, want 150", th.Now())
	}
}

func TestStoreBackpressureInRuntime(t *testing.T) {
	// A thread streaming stores faster than one bank can drain gets
	// stalled by the finite write buffer.
	m := NewDefault()
	ea := m.SharedAlloc(1 << 20)
	var th *T
	th, _ = m.Spawn(func(t *T) {
		for i := 0; i < 2000; i++ {
			// All stores to one bank: stride one line, hash-inverted
			// is hard, so just hammer a single line's bank.
			t.StoreF64(ea)
		}
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if th.Stall == 0 {
		t.Error("unbounded store stream never hit write-buffer backpressure")
	}
}
