package perf

import (
	"reflect"
	"strings"
	"testing"

	"cyclops/internal/core"
	"cyclops/internal/isa"
	"cyclops/internal/prof"
	"cyclops/internal/timing"
)

func TestWordOpsAndAtomic(t *testing.T) {
	m := NewDefault()
	ea := m.SharedAlloc(4096)
	var loadDone, atomicDone uint64
	m.Spawn(func(th *T) {
		v := th.LoadU32(ea)
		loadDone = v.Ready()
		th.StoreU32(ea+4, v)
		a := th.Atomic(ea + 64)
		atomicDone = a.Ready()
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if loadDone == 0 {
		t.Error("word load produced no timing")
	}
	// The atomic returns the old value: a load-latency path plus the
	// store half.
	if atomicDone <= loadDone {
		t.Errorf("atomic done %d not after earlier load %d", atomicDone, loadDone)
	}
}

func TestGatherScatter(t *testing.T) {
	m := NewDefault()
	base := m.SharedAlloc(1 << 16)
	eas := make([]uint32, 100)
	for i := range eas {
		eas[i] = base + uint32(8*i*13%60000)&^7
	}
	var th *T
	th, _ = m.Spawn(func(t *T) {
		v := t.LoadGather(eas, 8)
		t.StoreScatter(eas, 8, v)
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	// 200 accesses issued: at least that many run cycles.
	if th.Run < 200 {
		t.Errorf("gather+scatter issued %d run cycles, want >= 200", th.Run)
	}
	// Empty inputs are no-ops.
	m2 := NewDefault()
	m2.Spawn(func(t *T) {
		v := t.LoadGather(nil, 8)
		t.StoreScatter(nil, 8, v)
		if t.Now() != 0 {
			// A body's panic comes back as Run's error, failing this
			// test rather than the test binary.
			panic("empty bulk ops advanced time")
		}
	})
	if err := m2.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestFPVariantTimings(t *testing.T) {
	m := NewDefault()
	var mulDone, divDone, sqrtDone uint64
	m.Spawn(func(th *T) {
		a := th.FMul()
		mulDone = a.Ready()
		d := th.FDiv()
		divDone = d.Ready() - th.Now() + 1
		s := th.FSqrt()
		sqrtDone = s.Ready()
		_ = s
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if mulDone != 6 { // issue at 0, 1 exec + 5 latency
		t.Errorf("fmul ready at %d, want 6", mulDone)
	}
	if divDone < 29 { // 30-cycle non-pipelined divide
		t.Errorf("fdiv completes %d cycles after issue, want ~30", divDone)
	}
	if sqrtDone < 56 {
		t.Errorf("fsqrt ready at %d, want >= 56", sqrtDone)
	}
}

func TestFPBlockPipelines(t *testing.T) {
	// 100 independent adds through FPBlock take ~100 cycles (pipelined),
	// not 600.
	m := NewDefault()
	var done uint64
	m.Spawn(func(th *T) {
		v := th.FPBlock(isa.PipeAdd, 100)
		done = v.Ready()
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if done < 100 || done > 140 {
		t.Errorf("100 pipelined adds ready at %d, want ~105", done)
	}
	// Chunking: a big block still sums to the right issue count.
	m2 := NewDefault()
	var th2 *T
	th2, _ = m2.Spawn(func(th *T) {
		th.FPBlock(isa.PipeBoth, 500)
	})
	if err := m2.Run(); err != nil {
		t.Fatal(err)
	}
	if th2.Run != 500 {
		t.Errorf("FPBlock(500) issued %d ops", th2.Run)
	}
	// Zero-length is a no-op.
	m3 := NewDefault()
	m3.Spawn(func(th *T) {
		if v := th.FPBlock(isa.PipeAdd, 0); v.Ready() != th.Now() {
			panic("empty FPBlock advanced readiness")
		}
	})
	if err := m3.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestFPBlockMatchesSingleOps holds FPBlock, which books the rest of a
// chunk in one step, to the per-op path: under every policy, with and
// without a profiler, two FPBlocks of n ops leave the thread's ledger, its
// clock, its quad's FPU and the profile where 2n single FAdd, FMul or FMA
// calls do, and return the same token. Every FPU is busy past the thread's
// start, so the first op waits (and switches under blocked).
func TestFPBlockMatchesSingleOps(t *testing.T) {
	pipes := []struct {
		pipe   isa.FPUPipe
		single func(*T, ...Val) Val
	}{{isa.PipeAdd, (*T).FAdd}, {isa.PipeMul, (*T).FMul}, {isa.PipeBoth, (*T).FMA}}
	type outcome struct {
		last    Val
		l       timing.Ledger
		now     uint64
		fpu     core.FPU
		profile *prof.Profile
	}
	run := func(pol timing.Policy, profiled bool, body func(*T) Val) outcome {
		m := NewDefault()
		m.SetPolicy(pol)
		if profiled {
			m.AttachProfile(prof.New(16))
		}
		for _, f := range m.Chip.FPUs {
			f.Dispatch(40, isa.PipeBoth, 1)
		}
		var o outcome
		th, _ := m.Spawn(func(th *T) {
			body(th)
			th.Work(3)
			o.last = body(th)
		})
		if err := m.Run(); err != nil {
			t.Fatal(err)
		}
		o.l, o.now, o.fpu, o.profile = th.Ledger, th.Now(), *m.Chip.FPUs[th.Quad], m.Prof
		o.l.Samp = nil
		return o
	}
	const n = 2*bulkChunk + 7
	for _, pol := range []timing.Policy{timing.FineGrain{}, timing.SwitchOnMiss{Pen: 8}, timing.Blocked{Pen: 8}} {
		for _, profiled := range []bool{false, true} {
			for _, p := range pipes {
				block := run(pol, profiled, func(th *T) Val { return th.FPBlock(p.pipe, n) })
				one := run(pol, profiled, func(th *T) Val {
					var v Val
					for i := 0; i < n; i++ {
						v = p.single(th)
					}
					return v
				})
				if !reflect.DeepEqual(block, one) {
					t.Errorf("%s, profiled %v, pipe %d: FPBlock(%d) gave %+v,\n%d single ops %+v",
						pol, profiled, p.pipe, n, block, n, one)
				}
			}
		}
	}
}

// TestFPBlockRejectsUnpipelinedPipes: FPBlock times pipelined ops only.
func TestFPBlockRejectsUnpipelinedPipes(t *testing.T) {
	for _, pipe := range []isa.FPUPipe{isa.PipeNone, isa.PipeDiv} {
		m := NewDefault()
		m.Spawn(func(th *T) { th.FPBlock(pipe, 4) })
		if err := m.Run(); err == nil || !strings.Contains(err.Error(), "not pipelined") {
			t.Errorf("FPBlock on pipe %d: Run returned %v, want a not-pipelined panic", pipe, err)
		}
	}
}

func TestStoreBlockBackpressure(t *testing.T) {
	// A long contiguous store stream must eventually stall on the
	// write buffers (all to one thread: far above one bank's rate).
	m := NewDefault()
	ea := m.SharedAlloc(1 << 20)
	var th *T
	th, _ = m.Spawn(func(t *T) {
		for rep := 0; rep < 50; rep++ {
			t.StoreBlock(ea, 256, 8, 0) // hammer one line's bank
		}
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if th.Stall == 0 {
		t.Error("12800 stores to one bank never stalled")
	}
}

func TestThreadsAccessor(t *testing.T) {
	m := NewDefault()
	m.SpawnN(3, func(th *T, i int) { th.Work(i) })
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if len(m.Threads()) != 3 {
		t.Errorf("Threads() = %d entries", len(m.Threads()))
	}
}

func TestBlockChunkingPreservesTotals(t *testing.T) {
	// A 100-element LoadBlock equals 100 single loads in issued work
	// even though it spans multiple scheduling quanta.
	m := NewDefault()
	ea := m.SharedAlloc(1 << 12)
	var th *T
	th, _ = m.Spawn(func(t *T) {
		t.LoadBlock(ea, 100, 8, 8)
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if th.Run != 100 {
		t.Errorf("LoadBlock(100) issued %d cycles of work", th.Run)
	}
}
