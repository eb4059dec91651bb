package stream

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"cyclops/internal/arch"
	"cyclops/internal/asm"
	"cyclops/internal/core"
	"cyclops/internal/isa"
	"cyclops/internal/kernel"
	"cyclops/internal/timing"
)

func TestGenerateAssemblesForAllVariants(t *testing.T) {
	variants := []Params{
		{Kernel: Copy, Threads: 1, N: 512},
		{Kernel: Scale, Threads: 1, N: 512},
		{Kernel: Add, Threads: 8, N: 512},
		{Kernel: Triad, Threads: 8, N: 512, Partition: Cyclic},
		{Kernel: Copy, Threads: 8, N: 512, Local: true},
		{Kernel: Triad, Threads: 8, N: 512, Local: true, Unroll: 4},
		{Kernel: Add, Threads: 8, N: 64, Independent: true},
		{Kernel: Copy, Threads: 126, N: 8 * 126},
		{Kernel: Triad, Threads: 126, N: 16 * 126, Partition: Cyclic},
	}
	for _, p := range variants {
		src, err := Generate(p)
		if err != nil {
			t.Fatalf("%+v: %v", p, err)
		}
		if _, err := asm.Assemble(src); err != nil {
			t.Fatalf("%+v does not assemble: %v\n%s", p, err, src)
		}
	}
}

// TestSourceBytesBoundsEveryProgram: Generate sizes its builder once
// from sourceBytes, so the bound must hold for every shape of program,
// and stay within twice the program so the one allocation is not waste.
func TestSourceBytesBoundsEveryProgram(t *testing.T) {
	for _, k := range Kernels {
		for _, threads := range []int{1, 8, 126} {
			for _, reps := range []int{1, 2, 8} {
				for _, v := range []Params{
					{Unroll: 1}, {Unroll: 4}, {Unroll: 4, Local: true},
					{Partition: Cyclic}, {Independent: true, Unroll: 4},
				} {
					p := v
					p.Kernel, p.Threads, p.N, p.Reps = k, threads, threads*64, reps
					if p.Independent {
						p.N = 64 // per thread
					}
					src, err := Generate(p)
					if err != nil {
						t.Fatalf("%+v: %v", p, err)
					}
					p.SetDefaults()
					if n := sourceBytes(p); len(src) > n || n > 2*len(src) {
						t.Errorf("%+v: %d-byte program, bound %d", p, len(src), n)
					}
				}
			}
		}
	}
}

func TestValidateRejectsBadParams(t *testing.T) {
	bad := []struct {
		name string
		p    Params
	}{
		{"zero threads", Params{Kernel: Copy, N: 64}},
		{"N not line multiple", Params{Kernel: Copy, Threads: 2, N: 60}},
		{"N not divisible by threads", Params{Kernel: Copy, Threads: 3, N: 64}},
		{"bad unroll", Params{Kernel: Copy, Threads: 1, N: 64, Unroll: 3}},
		{"cyclic local", Params{Kernel: Copy, Threads: 8, N: 512, Partition: Cyclic, Local: true}},
		{"cyclic unrolled", Params{Kernel: Copy, Threads: 8, N: 512, Partition: Cyclic, Unroll: 4}},
		{"too big", Params{Kernel: Copy, Threads: 1, N: 1 << 21}},
		{"independent too big", Params{Kernel: Copy, Threads: 126, N: 1 << 14, Independent: true}},
		{"negative reps", Params{Kernel: Copy, Threads: 1, N: 64, Reps: -3}},
		{"too many reps", Params{Kernel: Copy, Threads: 1, N: 64, Reps: MaxReps + 1}},
	}
	for _, c := range bad {
		if err := c.p.Validate(); err == nil {
			t.Errorf("%s accepted", c.name)
		}
	}
}

// The most reps Validate accepts still make a program that assembles and
// ends below the vectors.
func TestMaxRepsAssembles(t *testing.T) {
	src, err := Generate(Params{Kernel: Triad, Threads: 8, N: 512, Unroll: 4, Reps: MaxReps})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	if end := int(prog.Origin) + len(prog.Bytes); end > vecA {
		t.Errorf("a %d-rep program ends at %#x, past the vectors at %#x", MaxReps, end, vecA)
	}
}

func TestKernelMetadata(t *testing.T) {
	if Copy.BytesPerElement() != 16 || Scale.BytesPerElement() != 16 {
		t.Error("copy/scale move 2 words per element")
	}
	if Add.BytesPerElement() != 24 || Triad.BytesPerElement() != 24 {
		t.Error("add/triad move 3 words per element")
	}
	if Copy.String() != "Copy" || Triad.String() != "Triad" {
		t.Error("kernel names wrong")
	}
	if Blocked.String() != "blocked" || Cyclic.String() != "cyclic" {
		t.Error("partition names wrong")
	}
}

func TestRunSingleThreaded(t *testing.T) {
	res, err := Run(Params{Kernel: Copy, Threads: 1, N: 256, Reps: 2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.BestCycles == 0 {
		t.Fatal("no cycles measured")
	}
	if res.TotalBytes != 256*16 {
		t.Errorf("TotalBytes = %d", res.TotalBytes)
	}
	if res.GBps() <= 0 {
		t.Error("no bandwidth computed")
	}
	if len(res.RepCycles) != 2 {
		t.Errorf("reps = %d", len(res.RepCycles))
	}
	// Copy of 256 elements: at least one ld+sd per element; an absurdly
	// low cycle count would mean the timed region missed the kernel.
	if res.BestCycles < 256 {
		t.Errorf("best = %d cycles for 256 elements: timing region wrong", res.BestCycles)
	}
}

// A zero MaxCycles is the DefaultMaxCycles ceiling, like the other
// defaults; a set one bounds the run with the machines' one error.
func TestRunCycleLimit(t *testing.T) {
	p := Params{Kernel: Copy, Threads: 1, N: 256, Reps: 2}
	res, err := Run(p, 0)
	if err != nil || res.Params.MaxCycles != DefaultMaxCycles {
		t.Fatalf("unset MaxCycles ran under %d (%v), want %d", res.Params.MaxCycles, err, DefaultMaxCycles)
	}
	p.MaxCycles = res.BestCycles / 2
	if _, err := Run(p, 0); !errors.Is(err, timing.ErrCycleLimit) {
		t.Fatalf("MaxCycles %d: %v, want the cycle limit", p.MaxCycles, err)
	}
}

func TestRunMultithreadedFasterThanSingle(t *testing.T) {
	single, err := Run(Params{Kernel: Triad, Threads: 1, N: 2048, Reps: 2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	multi, err := Run(Params{Kernel: Triad, Threads: 16, N: 2048, Reps: 2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if multi.BestCycles*4 > single.BestCycles {
		t.Errorf("16 threads (%d cycles) not at least 4x faster than 1 (%d)",
			multi.BestCycles, single.BestCycles)
	}
}

func TestWarmRepsFasterThanCold(t *testing.T) {
	// 512 elements x 3 vectors = 12 KB: fits the caches, so rep 2+
	// runs in-cache and beats the cold first rep.
	res, err := Run(Params{Kernel: Add, Threads: 4, N: 512, Reps: 3}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.RepCycles[1] >= res.RepCycles[0] {
		t.Errorf("warm rep (%d) not faster than cold rep (%d)", res.RepCycles[1], res.RepCycles[0])
	}
	if res.BestCycles > res.RepCycles[0] {
		t.Error("best rep exceeds first rep")
	}
}

func TestLocalBeatsSharedForSmallVectors(t *testing.T) {
	shared, err := Run(Params{Kernel: Copy, Threads: 8, N: 1024, Reps: 3}, 0)
	if err != nil {
		t.Fatal(err)
	}
	local, err := Run(Params{Kernel: Copy, Threads: 8, N: 1024, Reps: 3, Local: true}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Section 3.2.2: local caches improve small-vector bandwidth by up
	// to 60%; at minimum they must not be slower.
	if local.BestCycles >= shared.BestCycles {
		t.Errorf("local mode (%d cycles) not faster than shared (%d)",
			local.BestCycles, shared.BestCycles)
	}
}

func TestBlockedBeatsCyclic(t *testing.T) {
	// Out-of-cache sizes: in cyclic mode the eight threads of a group
	// touch each line while it is still being fetched, so every one of
	// them waits the full miss latency (Section 3.2.2).
	blocked, err := Run(Params{Kernel: Copy, Threads: 16, N: 65536, Reps: 2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	cyclic, err := Run(Params{Kernel: Copy, Threads: 16, N: 65536, Reps: 2, Partition: Cyclic}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Figure 5: blocked outperforms cyclic at equal vector size.
	if blocked.BestCycles >= cyclic.BestCycles {
		t.Errorf("blocked (%d cycles) not faster than cyclic (%d)",
			blocked.BestCycles, cyclic.BestCycles)
	}
}

func TestUnrollingHelpsLocalBlocked(t *testing.T) {
	rolled, err := Run(Params{Kernel: Triad, Threads: 8, N: 2048, Local: true, Reps: 3}, 0)
	if err != nil {
		t.Fatal(err)
	}
	unrolled, err := Run(Params{Kernel: Triad, Threads: 8, N: 2048, Local: true, Unroll: 4, Reps: 3}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Figure 5d: unrolling improves small-vector performance by issuing
	// independent loads while earlier ones complete.
	if unrolled.BestCycles >= rolled.BestCycles {
		t.Errorf("unrolled (%d cycles) not faster than rolled (%d)",
			unrolled.BestCycles, rolled.BestCycles)
	}
}

func TestIndependentCopiesRun(t *testing.T) {
	res, err := Run(Params{Kernel: Triad, Threads: 8, N: 64, Independent: true, Reps: 2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalBytes != 8*64*24 {
		t.Errorf("TotalBytes = %d, want aggregate over private copies", res.TotalBytes)
	}
	if res.PerThreadMBps() <= 0 {
		t.Error("per-thread bandwidth not computed")
	}
}

func TestRunRejectsTooManyThreads(t *testing.T) {
	_, err := Run(Params{Kernel: Copy, Threads: 127, N: 8 * 127}, 0)
	if err == nil || !strings.Contains(err.Error(), "usable workers") {
		t.Errorf("127 threads: %v", err)
	}
}

func TestGeneratedSourceMentionsConfig(t *testing.T) {
	src, err := Generate(Params{Kernel: Triad, Threads: 4, N: 64, Local: true})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(src, "Triad") || !strings.Contains(src, "local=true") {
		t.Error("generated header does not describe the configuration")
	}
}

// TestGeneratedCodeStaysOffGenericIssue is the regression test for "no
// instruction the paper measures reaches Machine.issue from the block
// engine": every program Generate can emit runs with specialized bodies
// for everything but the thread-management syscalls and the index
// arithmetic of the prologue, and at more than one thread parks its
// barrier spinners.
func TestGeneratedCodeStaysOffGenericIssue(t *testing.T) {
	allowed := map[isa.Op]bool{isa.OpSYSCALL: true, isa.OpMUL: true, isa.OpDIVU: true}
	mappings := []struct {
		name string
		set  func(*Params)
	}{
		{"blocked", func(p *Params) {}},
		{"cyclic", func(p *Params) { p.Partition = Cyclic }},
		{"independent", func(p *Params) { p.Independent, p.N = true, 32 }},
		{"local", func(p *Params) { p.Local = true }},
	}
	for _, threads := range []int{1, 126} {
		for _, k := range Kernels {
			for _, mp := range mappings {
				for _, unroll := range []int{1, 4} {
					p := Params{Kernel: k, Threads: threads, N: 32 * threads, Unroll: unroll, Reps: 1}
					mp.set(&p)
					name := fmt.Sprintf("%s/%s/unroll%d/%dt", k, mp.name, unroll, threads)
					src, err := Generate(p)
					if err != nil {
						if p.Partition == Cyclic && unroll == 4 {
							continue // the paper unrolls only the blocked variants
						}
						t.Fatalf("%s: %v", name, err)
					}
					prog, err := asm.Assemble(src)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					kn := kernel.New(core.MustNew(arch.Default()))
					kn.Machine().MaxCycles = 10_000_000
					if err := kn.Boot(prog); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if err := kn.Run(); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					gs := kn.Machine().GenericStats()
					for _, op := range gs.Ops() {
						if !allowed[op] {
							t.Errorf("%s: %d issue attempts of %s took the generic path", name, gs.ByOp[op], op)
						}
					}
					if gs.ByOp[isa.OpSYSCALL] == 0 {
						t.Errorf("%s: no syscall counted; is the generic counter wired?", name)
					}
					if threads > 1 && kn.Machine().SchedStats().Parks == 0 {
						t.Errorf("%s: no unit parked at a barrier", name)
					}
				}
			}
		}
	}
}

// TestAssembleAllocationBudget holds what assembling the triad_local
// benchmark's program costs: the assembler sizes its statement table, the
// one array of every statement's fields, its symbol table and its line
// table once from the source, and most operands tokenize on the stack.
// It measured 48,600 B for the 7,002-byte source (go1.24, linux/amd64);
// the budget is that plus less than 25 %. Growing any table by doubling
// again costs more than the margin.
func TestAssembleAllocationBudget(t *testing.T) {
	src, err := Generate(Params{Kernel: Triad, Threads: 126, N: 126 * 80, Local: true, Unroll: 4, Reps: 8})
	if err != nil {
		t.Fatal(err)
	}
	const n = 16
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		if _, err := asm.Assemble(src); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	got := (after.TotalAlloc - before.TotalAlloc) / n
	t.Logf("asm.Assemble of a %d-byte Triad source allocated %d B", len(src), got)
	if got >= 56<<10 {
		t.Errorf("asm.Assemble of the Triad source allocated %d B, budget 56 KB", got)
	}
}

// TestRunAllocationBudget holds the host memory a small run costs: the
// point the benchmark's serve_mix posts every round, chip included, stays
// under 164 KB, its measured 134,944 B plus less than 25%. Functional memory
// is backed by the first write to a page, caches by their first install and
// thread units by their start, so the chip's 8 MB, the caches the run's 8
// threads never reach and the 120 units it never starts are not part of it.
func TestRunAllocationBudget(t *testing.T) {
	p := Params{Kernel: Triad, Threads: 8, N: 8 * 8 * 3, Local: true, Unroll: 4, Reps: 2}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Run(p, kernel.Sequential)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("stream.Run allocated %d B", got)
	if got >= 164<<10 {
		t.Errorf("stream.Run of %+v allocated %d B, budget 164 KB", p, got)
	}
}
