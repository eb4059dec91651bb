package sim

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"cyclops/internal/arch"
	"cyclops/internal/asm"
	"cyclops/internal/core"
	"cyclops/internal/timing"
)

// polCycles runs src single-threaded on engine e under pol and returns
// the finished machine's cycle count. The programs used here terminate,
// so any run error is a test bug.
func polCycles(t *testing.T, src string, e Engine, pol Policy) uint64 {
	t.Helper()
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	chip := core.MustNew(arch.Default())
	m := New(chip, nil)
	m.SetEngine(e)
	m.SetPolicy(pol)
	m.MaxCycles = 5_000_000
	if err := chip.LoadImage(p.Origin, p.Bytes); err != nil {
		t.Fatal(err)
	}
	if err := m.Start(1, p.Entry); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(); err != nil {
		t.Fatalf("%s under %s: %v", e, pol, err)
	}
	return m.Snapshot().Cycles
}

// polPrograms are small terminating single-thread workloads covering
// every switch trigger: scoreboard dependences on load results, FPU
// pipeline latency chains, store backpressure bursts, and enough code
// footprint to miss the I-cache at least on the first fetch.
func polPrograms() map[string]string {
	return map[string]string{
		"load-chain": `
_start:	la r16, data
	li r8, 200
loop:	lw r9, 0(r16)
	add r10, r10, r9
	lw r9, 4(r16)
	add r10, r10, r9
	addi r8, r8, -1
	bne r8, r0, loop
	halt
	.align 64
data:	.word 3
	.word 5
`,
		"fp-chain": `
_start:	la r16, data
	ld r8, 0(r16)
	li r10, 150
loop:	fmul r8, r8, r8
	fadd r8, r8, r8
	addi r10, r10, -1
	bne r10, r0, loop
	halt
	.align 64
data:	.double 1.0000001
`,
		"store-burst": `
_start:	la r16, data
	li r8, 400
loop:	sw r8, 0(r16)
	sw r8, 4(r16)
	sw r8, 8(r16)
	sw r8, 12(r16)
	addi r8, r8, -1
	bne r8, r0, loop
	halt
	.align 64
data:	.space 64
`,
	}
}

// TestPolicyConvergenceAtZeroPenalty pins the property that makes the
// policy abstraction safe to leave enabled everywhere: with a zero
// penalty, blocked and switch-on-miss are bit-identical to fine-grained
// on every engine — same cycles, same stall breakdowns, same registers.
func TestPolicyConvergenceAtZeroPenalty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	srcs := polPrograms()
	for i := 0; i < 10; i++ {
		srcs[fmt.Sprintf("random #%d", i)] = randomProgram(rng)
	}
	for name, src := range srcs {
		for _, e := range Engines() {
			fine := diffScenario{pol: timing.FineGrain{}, lat: timing.DefaultLatencies()}
			ref, refErr := diffRun(src, e, fine)
			want := diffState(ref, refErr)
			for _, pol := range []Policy{timing.Blocked{Pen: 0}, timing.SwitchOnMiss{Pen: 0}} {
				sc := diffScenario{pol: pol, lat: timing.DefaultLatencies()}
				m, err := diffRun(src, e, sc)
				if got := diffState(m, err); got != want {
					t.Fatalf("%s on %s: %s at penalty 0 differs from fine-grained\n--- fine ---\n%s--- %s ---\n%s",
						name, e, pol, want, pol, got)
				}
			}
		}
	}
}

// TestBlockedDominatesFineSingleThread pins the monotonicity property:
// on a single-thread run a switching policy can only add delay — every
// penalty pushes the one thread's resume time later and no contention
// relief exists to win it back — so blocked and switch-on-miss cycle
// counts dominate fine-grained. (Multi-thread runs are deliberately NOT
// covered: switching changes interleaving and can reduce port
// contention, as the matrix experiment shows.)
func TestBlockedDominatesFineSingleThread(t *testing.T) {
	for name, src := range polPrograms() {
		for _, e := range Engines() {
			fine := polCycles(t, src, e, timing.FineGrain{})
			for _, pol := range []Policy{timing.Blocked{Pen: 8}, timing.SwitchOnMiss{Pen: 8}} {
				got := polCycles(t, src, e, pol)
				if got < fine {
					t.Errorf("%s on %s: %s = %d cycles, below fine-grained %d",
						name, e, pol, got, fine)
				}
			}
			// Blocked switches on a superset of switch-on-miss's triggers
			// at equal penalty, so it also dominates the hybrid.
			miss := polCycles(t, src, e, timing.SwitchOnMiss{Pen: 8})
			blocked := polCycles(t, src, e, timing.Blocked{Pen: 8})
			if blocked < miss {
				t.Errorf("%s on %s: blocked/8 = %d cycles, below switchmiss/8 %d",
					name, e, blocked, miss)
			}
		}
	}
}

func TestSetPolicyAfterStartPanics(t *testing.T) {
	p, err := asm.Assemble("_start:\thalt\n")
	if err != nil {
		t.Fatal(err)
	}
	chip := core.MustNew(arch.Default())
	m := New(chip, nil)
	if err := chip.LoadImage(p.Origin, p.Bytes); err != nil {
		t.Fatal(err)
	}
	if err := m.Start(1, p.Entry); err != nil {
		t.Fatal(err)
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("SetPolicy on a started machine did not panic")
		}
		if s, ok := r.(string); !ok || !strings.Contains(s, "SetPolicy after Start") {
			t.Fatalf("panic = %v, want SetPolicy after Start", r)
		}
	}()
	m.SetPolicy(timing.Blocked{Pen: 8})
}

func TestSetPolicyDefaults(t *testing.T) {
	m := New(core.MustNew(arch.Default()), nil)
	m.SetPolicy(timing.SwitchOnMiss{Pen: 4})
	if got := m.Policy().String(); got != "switchmiss/4" {
		t.Errorf("machine policy = %s, want switchmiss/4", got)
	}
	// nil resets to fine-grained explicitly.
	m.SetPolicy(nil)
	if got := m.Policy().String(); got != "fine" {
		t.Errorf("SetPolicy(nil) = %s, want fine", got)
	}
	for tid := range m.Chip.Cfg.Threads {
		tu := m.Unit(tid)
		if tu.Pol != (timing.PolicyTable{}) {
			t.Fatalf("tu%d trigger table %+v, want zero after reset", tu.ID, tu.Pol)
		}
	}
}
