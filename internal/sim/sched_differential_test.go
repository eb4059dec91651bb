package sim

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"cyclops/internal/arch"
	"cyclops/internal/asm"
	"cyclops/internal/core"
	"cyclops/internal/isa"
)

// The scheduler differential: diffRun starts one thread unit, so the
// engine differential never forms a batch of two. Here many units run one
// generated loop — in shuffled start order, over shared banks and quad
// FPUs, halting at staggered times, sleeping past the wheel's horizon,
// starting and restarting each other mid-batch — and the block engine's
// final state must still equal the legacy oracle's.

// schedPlan is what one thread unit does: loop iterations, then one
// action through schedKernel (0: none) with its argument.
type schedPlan struct {
	iters, action, arg uint32
}

const (
	actSpawn   = 1 // start the next not-yet-started unit
	actRestart = 2 // restart unit arg if it has halted
	actSleep   = 3 // occupy the unit for arg cycles
)

// schedKernel is the test's Syscaller; it starts units from inside a
// batch, which is the one thing Machine.Start before Run cannot do.
type schedKernel struct {
	entry     uint32
	plans     []schedPlan // by tid
	pending   []int       // tids actSpawn may still start, in order
	restarted map[int]bool

	midBatch int // starts made while a batch of several was issuing (block engine only)
}

// arm loads a unit's plan into the registers the program reads.
func (k *schedKernel) arm(tu *TU, p schedPlan) {
	tu.Regs[20], tu.Regs[21], tu.Regs[22], tu.Regs[23] = uint32(tu.ID), p.iters, p.action, p.arg
}

func (k *schedKernel) start(m *Machine, tid int, p schedPlan) error {
	if err := m.Start(tid, k.entry); err != nil {
		return err
	}
	k.arm(m.Unit(tid), p)
	if len(m.batch) > 1 {
		k.midBatch++
	}
	return nil
}

func (k *schedKernel) Syscall(m *Machine, tu *TU) SysResult {
	arg := tu.Regs[isa.RArg1]
	switch tu.Regs[isa.RArg0] {
	case actSpawn:
		if len(k.pending) > 0 {
			tid := k.pending[0]
			k.pending = k.pending[1:]
			if err := k.start(m, tid, k.plans[tid]); err != nil {
				m.Trap("schedKernel: %v", err)
			}
		}
		return SysResult{Cost: 10}
	case actRestart:
		// Start refuses a victim that halted earlier in this very cycle
		// and is not retired yet: that is "not yet", like a victim still
		// running, and identically so on both engines.
		if victim := m.Unit(int(arg)); victim.State == Halted && !k.restarted[victim.ID] &&
			k.start(m, victim.ID, schedPlan{iters: 2}) == nil {
			k.restarted[victim.ID] = true
		}
		return SysResult{Cost: 6}
	case actSleep:
		return SysResult{Cost: uint64(arg)}
	}
	m.Trap("schedKernel: unknown action %d", tu.Regs[isa.RArg0])
	return SysResult{Halt: true}
}

// schedProgram generates the loop every unit runs. r20 is the unit's tid,
// r21 its iteration count, r22/r23 its action; r16 points at a window all
// units share (one line, so one bank and, through the shared mapping, one
// cache), r17 at the unit's own slot. Shared stores — and every unit's
// writes to the wired-OR barrier register — make later loads and SPR
// reads depend on the order units issued in.
func schedProgram(rng *rand.Rand) string {
	var sb strings.Builder
	sb.WriteString(`_start:	la   r16, shared
	slli r17, r20, 3
	add  r17, r17, r16
	li   r19, 7
	ld   d32, 0(r16)
	ld   d34, 8(r16)
	add  r8, r20, r19
loop:
`)
	reg := func() int { return 8 + rng.Intn(8) }
	for i, n := 0, 3+rng.Intn(8); i < n; i++ {
		switch rng.Intn(16) {
		case 0, 1:
			ops := []string{"add", "sub", "xor", "or", "sltu"}
			fmt.Fprintf(&sb, "\t%s r%d, r%d, r%d\n", ops[rng.Intn(len(ops))], reg(), reg(), reg())
		case 2:
			fmt.Fprintf(&sb, "\tadd r%d, r%d, r20\n", reg(), reg())
		case 3, 4:
			fmt.Fprintf(&sb, "\tlw r%d, %d(r16)\n", reg(), 16+4*rng.Intn(12))
		case 5:
			fmt.Fprintf(&sb, "\tsw r%d, %d(r16)\n", reg(), 16+4*rng.Intn(12))
		case 6:
			fmt.Fprintf(&sb, "\tsw r%d, 64(r17)\n\tlw r%d, 64(r17)\n", reg(), reg())
		case 7:
			fmt.Fprintf(&sb, "\t%s d36, d32, d34\n", []string{"fadd", "fmul", "fsub"}[rng.Intn(3)])
		case 8:
			sb.WriteString("\tfma d38, d32, d34, d36\n")
		case 9:
			sb.WriteString([]string{"\tfdiv d40, d32, d34\n", "\tfsqrt d42, d34\n"}[rng.Intn(2)])
		case 10:
			fmt.Fprintf(&sb, "\tdiv r%d, r%d, r19\n", reg(), reg())
		case 11:
			fmt.Fprintf(&sb, "\tmul r%d, r%d, r%d\n", reg(), reg(), reg())
		case 12:
			fmt.Fprintf(&sb, "\tsd r%d, %d(r16)\n", reg(), 16+8*rng.Intn(6))
		case 13:
			fmt.Fprintf(&sb, "\tsd d36, 64(r17)\n\tlw r%d, 68(r17)\n", reg())
		case 14:
			fmt.Fprintf(&sb, "\tmfspr r%d, %d\n", reg(), []int{isa.SPRCycle, isa.SPRBarrier}[rng.Intn(2)])
		case 15:
			fmt.Fprintf(&sb, "\tmtspr r%d, %d\n", reg(), isa.SPRBarrier)
		}
	}
	sb.WriteString(`	addi r21, r21, -1
	bne  r21, r0, loop
	beq  r22, r0, bye
	mov  a0, r22
	mov  a1, r23
	syscall
bye:	halt
	.align 64
shared:	.double 1.5, 2.25
	.space 2160
`)
	return sb.String()
}

// schedConfig picks the chip: the default 128 thread units (two bitmap
// words per wheel slot), 256 (four) or 4 (one, a single quad).
func schedConfig(draw int) arch.Config {
	cfg := arch.Default()
	switch draw % 4 {
	case 0:
		cfg.Threads = 256
	case 1:
		cfg.Threads, cfg.QuadsPerICache, cfg.ReservedThreads = 4, 1, 0
	}
	return cfg
}

// schedRun derives one case from seed — program, unit count in [2, units],
// shuffled start order, plans — and runs it on engine e.
func schedRun(seed int64, units int, cfg arch.Config, sc diffScenario, e Engine) (*Machine, *schedKernel, error) {
	rng := rand.New(rand.NewSource(seed))
	p, err := asm.Assemble(schedProgram(rng))
	if err != nil {
		return nil, nil, err
	}
	chip := core.MustNew(sc.lat.Apply(cfg))
	k := &schedKernel{entry: p.Entry, plans: make([]schedPlan, cfg.Threads), restarted: map[int]bool{}}
	m := New(chip, k)
	m.SetEngine(e)
	m.SetPolicy(sc.pol)
	m.MaxCycles = 400_000
	if err := chip.LoadImage(p.Origin, p.Bytes); err != nil {
		return nil, nil, err
	}
	order := rng.Perm(cfg.Threads)
	n := 2 + rng.Intn(min(units, cfg.Threads)-1)
	var early []int // units that halt soon: the ones worth restarting
	for _, tid := range order {
		pl := schedPlan{iters: 1 + uint32(rng.Intn(10))}
		switch {
		case pl.iters <= 2:
			early = append(early, tid)
		case rng.Intn(3) == 0:
			pl.action = actSpawn
		case rng.Intn(3) == 0 && len(early) > 0:
			pl.action, pl.arg = actRestart, uint32(early[rng.Intn(len(early))])
		case rng.Intn(3) == 0:
			// Some short of the horizon, some several horizons past it.
			pl.action, pl.arg = actSleep, uint32(wheelSlots/2+rng.Intn(4*wheelSlots))
		}
		k.plans[tid] = pl
	}
	// Most units start now; the rest wait for an actSpawn.
	started := n - n/4
	k.pending = order[started:n]
	for _, tid := range order[:started] {
		k.arm(m.Unit(tid), k.plans[tid])
		if err := m.Start(tid, p.Entry); err != nil {
			return nil, nil, err
		}
	}
	return m, k, m.Run()
}

// schedCompare runs one case on both engines and fails on any divergence;
// it returns the block-engine machine and kernel for path accounting.
func schedCompare(t *testing.T, seed int64, units int, cfg arch.Config, sc diffScenario) (*Machine, *schedKernel) {
	t.Helper()
	ref, _, refErr := schedRun(seed, units, cfg, sc, EngineLegacy)
	want := diffState(ref, refErr)
	m, k, err := schedRun(seed, units, cfg, sc, EngineBlock)
	if got := diffState(m, err); got != want {
		t.Fatalf("seed %d, <=%d units of %d (%s): block engine diverges from legacy\n--- legacy ---\n%s--- block ---\n%s",
			seed, units, cfg.Threads, sc, want, got)
	}
	if m == nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	return m, k
}

// TestSchedDifferential sweeps every (policy family, latency point) pair
// of scenarioFor over the three chip sizes, and checks the corpus really
// took the scheduler's rare paths.
func TestSchedDifferential(t *testing.T) {
	var st SchedStats
	var midBatch, restarts int
	words := map[int]bool{}
	seed := int64(0)
	for polDraw := 0; polDraw < 3; polDraw++ {
		for latDraw := range diffLatencies() {
			for cfgDraw := 0; cfgDraw < 4; cfgDraw++ {
				seed++
				// polDraw>>2 feeds the penalty; vary it with the seed.
				sc := scenarioFor(polDraw+12*int(seed%16), latDraw)
				cfg := schedConfig(cfgDraw)
				units := []int{256, 4, 126, 12}[cfgDraw]
				m, k := schedCompare(t, seed, units, cfg, sc)
				s := m.SchedStats()
				st.Batches += s.Batches
				st.Units += s.Units
				st.Overflow += s.Overflow
				st.Rebuilds += s.Rebuilds
				midBatch += k.midBatch
				restarts += len(k.restarted)
				words[m.eq.words] = true
			}
		}
	}
	t.Logf("%+v, %d mid-batch starts, %d restarts", st, midBatch, restarts)
	if st.Units < 4*st.Batches {
		t.Errorf("batches average under 4 units: %+v", st)
	}
	if st.Overflow == 0 || st.Rebuilds == 0 || midBatch == 0 || restarts == 0 {
		t.Errorf("a scheduler path never ran: %+v, %d mid-batch starts, %d restarts", st, midBatch, restarts)
	}
	if !words[1] || !words[2] || !words[4] {
		t.Errorf("bitmap widths covered: %v, want 1, 2 and 4 words", words)
	}
}

// FuzzSchedDifferential lets the fuzzer pick the case: program and plans
// from seed, the unit bound, the chip size and the scenario.
func FuzzSchedDifferential(f *testing.F) {
	f.Add(int64(1), uint8(126), uint8(0), uint8(0), uint8(2))
	f.Add(int64(2), uint8(255), uint8(1), uint8(1), uint8(0))
	f.Add(int64(3), uint8(4), uint8(2), uint8(2), uint8(1))
	f.Add(int64(4), uint8(16), uint8(41), uint8(3), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, units, polDraw, latDraw, cfgDraw uint8) {
		schedCompare(t, seed, 2+int(units), schedConfig(int(cfgDraw)), scenarioFor(int(polDraw), int(latDraw)))
	})
}
