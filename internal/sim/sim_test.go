package sim

import (
	"errors"
	"math"
	"strings"
	"testing"

	"cyclops/internal/arch"
	"cyclops/internal/asm"
	"cyclops/internal/core"
	"cyclops/internal/timing"
)

// run assembles src, loads it, starts thread 2 at the entry point and runs
// to completion, returning the machine for inspection.
func run(t *testing.T, src string) *Machine {
	t.Helper()
	m, err := tryRun(src)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func tryRun(src string) (*Machine, error) {
	return tryRunEngine(src, EngineBlock)
}

func tryRunEngine(src string, e Engine) (*Machine, error) {
	p, err := asm.Assemble(src)
	if err != nil {
		return nil, err
	}
	chip := core.MustNew(arch.Default())
	m := New(chip, nil)
	m.SetEngine(e)
	m.MaxCycles = 2_000_000
	if err := chip.LoadImage(p.Origin, p.Bytes); err != nil {
		return nil, err
	}
	if err := m.Start(2, p.Entry); err != nil {
		return nil, err
	}
	return m, m.Run()
}

// runEngine is run with an explicit engine selection.
func runEngine(t *testing.T, src string, e Engine) *Machine {
	t.Helper()
	m, err := tryRunEngine(src, e)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func word(t *testing.T, m *Machine, addr uint32) uint32 {
	t.Helper()
	v, err := m.Chip.Mem.Read32(addr)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestArithmeticProgram(t *testing.T) {
	m := run(t, `
	li   r8, 1000
	li   r9, 337
	add  r10, r8, r9	; 1337
	sub  r11, r8, r9	; 663
	mul  r12, r8, r9	; 337000
	div  r13, r8, r9	; 2
	la   r20, out
	sw   r10, 0(r20)
	sw   r11, 4(r20)
	sw   r12, 8(r20)
	sw   r13, 12(r20)
	halt
out:	.space 16
	`)
	out := m.Chip.Mem
	base, _ := out.Read32(0) // unused; silence nothing
	_ = base
	addr := uint32(0)
	// Find "out" via known layout: instructions occupy the start; easier
	// to just scan the assembled symbol table — but run() drops it, so
	// recompute from the fact out follows the halt. Instead re-assemble.
	p, _ := asm.Assemble(`
	li   r8, 1000
	li   r9, 337
	add  r10, r8, r9
	sub  r11, r8, r9
	mul  r12, r8, r9
	div  r13, r8, r9
	la   r20, out
	sw   r10, 0(r20)
	sw   r11, 4(r20)
	sw   r12, 8(r20)
	sw   r13, 12(r20)
	halt
out:	.space 16
	`)
	addr = p.Symbols["out"]
	want := []uint32{1337, 663, 337000, 2}
	for i, w := range want {
		if got := word(t, m, addr+uint32(4*i)); got != w {
			t.Errorf("out[%d] = %d, want %d", i, got, w)
		}
	}
}

func TestLogicAndShifts(t *testing.T) {
	m := run(t, `
	li   r8, 0xff0
	li   r9, 0x0ff
	and  r10, r8, r9
	or   r11, r8, r9
	xor  r12, r8, r9
	nor  r13, r8, r9
	slli r14, r9, 4
	srli r15, r8, 4
	li   r16, -64
	srai r17, r16, 3	; -8
	slt  r18, r16, r0	; 1 (signed)
	sltu r19, r16, r0	; 0 (unsigned: big)
	la   r20, out
	sw   r10, 0(r20)
	sw   r11, 4(r20)
	sw   r12, 8(r20)
	sw   r13, 12(r20)
	sw   r14, 16(r20)
	sw   r15, 20(r20)
	sw   r17, 24(r20)
	sw   r18, 28(r20)
	sw   r19, 32(r20)
	halt
	.align 4
out:	.space 36
	`)
	p, _ := asm.Assemble("nop") // placeholder; need symbol from same src
	_ = p
	// Recover the symbol address by re-assembling the same source.
	src := `
	li   r8, 0xff0
	li   r9, 0x0ff
	and  r10, r8, r9
	or   r11, r8, r9
	xor  r12, r8, r9
	nor  r13, r8, r9
	slli r14, r9, 4
	srli r15, r8, 4
	li   r16, -64
	srai r17, r16, 3
	slt  r18, r16, r0
	sltu r19, r16, r0
	la   r20, out
	sw   r10, 0(r20)
	sw   r11, 4(r20)
	sw   r12, 8(r20)
	sw   r13, 12(r20)
	sw   r14, 16(r20)
	sw   r15, 20(r20)
	sw   r17, 24(r20)
	sw   r18, 28(r20)
	sw   r19, 32(r20)
	halt
	.align 4
out:	.space 36
	`
	pp, _ := asm.Assemble(src)
	addr := pp.Symbols["out"]
	minus8 := int32(-8)
	want := []uint32{0x0f0, 0xfff, 0xf0f, ^uint32(0xfff), 0xff0, 0xff, uint32(minus8), 1, 0}
	for i, w := range want {
		if got := word(t, m, addr+uint32(4*i)); got != w {
			t.Errorf("out[%d] = %#x, want %#x", i, got, w)
		}
	}
}

func TestLoopAndBranches(t *testing.T) {
	// Sum 1..100 = 5050.
	m := run(t, `
	li   r8, 0	; sum
	li   r9, 1	; i
	li   r10, 100
loop:	add  r8, r8, r9
	addi r9, r9, 1
	ble  r9, r10, loop
	la   r20, out
	sw   r8, 0(r20)
	halt
out:	.space 4
	`)
	pp, _ := asm.Assemble(`
	li   r8, 0
	li   r9, 1
	li   r10, 100
loop:	add  r8, r8, r9
	addi r9, r9, 1
	ble  r9, r10, loop
	la   r20, out
	sw   r8, 0(r20)
	halt
out:	.space 4
	`)
	if got := word(t, m, pp.Symbols["out"]); got != 5050 {
		t.Errorf("sum = %d, want 5050", got)
	}
}

func TestFloatingPoint(t *testing.T) {
	src := `
	la   r8, in
	ld   d16, 0(r8)		; 3.0
	ld   d18, 8(r8)		; 4.0
	fmul d20, d16, d16	; 9
	fma  d22, d18, d18, d20	; 16+9 = 25
	fsqrt d24, d22		; 5
	fadd d26, d24, d16	; 8
	fsub d28, d26, d18	; 4
	fdiv d30, d28, d16	; 4/3
	la   r9, out
	sd   d24, 0(r9)
	sd   d30, 8(r9)
	fcvtwd r10, d24
	sw   r10, 16(r9)
	li   r11, 7
	fcvtdw d32, r11
	sd   d32, 24(r9)
	fclt r12, d16, d18	; 1
	sw   r12, 32(r9)
	halt
	.align 8
in:	.double 3.0, 4.0
out:	.space 40
	`
	m := run(t, src)
	pp, _ := asm.Assemble(src)
	o := pp.Symbols["out"]
	rd64 := func(a uint32) float64 {
		v, err := m.Chip.Mem.Read64(a)
		if err != nil {
			t.Fatal(err)
		}
		return float64frombits(v)
	}
	if got := rd64(o); got != 5.0 {
		t.Errorf("sqrt(25) = %v", got)
	}
	if got := rd64(o + 8); got < 1.333 || got > 1.334 {
		t.Errorf("4/3 = %v", got)
	}
	if got := word(t, m, o+16); got != 5 {
		t.Errorf("fcvtwd = %d", got)
	}
	if got := rd64(o + 24); got != 7.0 {
		t.Errorf("fcvtdw = %v", got)
	}
	if got := word(t, m, o+32); got != 1 {
		t.Errorf("fclt = %d", got)
	}
}

func TestSubWordMemory(t *testing.T) {
	src := `
	la   r8, buf
	li   r9, 0x80
	sb   r9, 0(r8)
	li   r9, 0x8001
	sh   r9, 2(r8)
	lb   r10, 0(r8)		; sign-extends to -128
	lbu  r11, 0(r8)		; 0x80
	lh   r12, 2(r8)		; sign-extends
	lhu  r13, 2(r8)		; 0x8001
	la   r14, out
	sw   r10, 0(r14)
	sw   r11, 4(r14)
	sw   r12, 8(r14)
	sw   r13, 12(r14)
	halt
	.align 4
buf:	.space 8
out:	.space 16
	`
	m := run(t, src)
	pp, _ := asm.Assemble(src)
	o := pp.Symbols["out"]
	minus128 := int32(-128)
	h := uint16(0x8001)
	sexth := int32(int16(h))
	want := []uint32{uint32(minus128), 0x80, uint32(sexth), 0x8001}
	for i, w := range want {
		if got := word(t, m, o+uint32(4*i)); got != w {
			t.Errorf("out[%d] = %#x, want %#x", i, got, w)
		}
	}
}

func TestAtomics(t *testing.T) {
	src := `
	la   r8, ctr
	li   r9, 5
	amoadd r10, (r8), r9	; old 0, ctr=5
	li   r9, 40
	amoswap r11, (r8), r9	; old 5, ctr=40
	mov  r12, r9		; expect 40
	li   r13, 99
	mov  r4, r12
	amocas r4, (r8), r13	; matches -> ctr=99, r4=40
	la   r14, out
	sw   r10, 0(r14)
	sw   r11, 4(r14)
	sw   r4, 8(r14)
	lw   r15, 0(r8)
	sw   r15, 12(r14)
	halt
	.align 4
ctr:	.word 0
out:	.space 16
	`
	m := run(t, src)
	pp, _ := asm.Assemble(src)
	o := pp.Symbols["out"]
	want := []uint32{0, 5, 40, 99}
	for i, w := range want {
		if got := word(t, m, o+uint32(4*i)); got != w {
			t.Errorf("out[%d] = %d, want %d", i, got, w)
		}
	}
}

func float64frombits(b uint64) float64 {
	return mathFloat64frombits(b)
}

func TestTraps(t *testing.T) {
	cases := []struct {
		name, src, wantSub string
	}{
		{"illegal", ".word 0xffffffff", "illegal instruction"},
		{"unaligned lw", "li r8, 2\nlw r9, 0(r8)\nhalt", "unaligned"},
		{"unaligned ld", "li r8, 4\nld d16, 0(r8)\nhalt", "unaligned"},
		{"div by zero", "li r8, 1\ndiv r9, r8, r0\nhalt", "divide by zero"},
		{"odd ld dest", "ld r9, 0(r0)\nhalt", "not a pair"},
		{"syscall without kernel", "syscall", "no kernel"},
		{"mtspr bad", "mtspr r8, 0", "not writable"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := tryRun(c.src)
			if err == nil {
				t.Fatal("no trap")
			}
			if !strings.Contains(err.Error(), c.wantSub) {
				t.Errorf("trap %q does not mention %q", err, c.wantSub)
			}
		})
	}
}

func TestDependentAddsRunOnePerCycle(t *testing.T) {
	// 100 dependent adds vs 100 independent adds should take the same
	// time: ALU results are ready the next cycle either way.
	dep := run(t, strings.Repeat("add r8, r8, r8\n", 100)+"halt")
	var indep strings.Builder
	for i := 0; i < 100; i++ {
		indep.WriteString("add r8, r9, r10\n")
	}
	indep.WriteString("halt")
	ind := run(t, indep.String())
	d, i := dep.Unit(2), ind.Unit(2)
	if d.Run != i.Run {
		t.Errorf("dependent adds %d run cycles vs independent %d", d.Run, i.Run)
	}
}

func TestLoadUseStall(t *testing.T) {
	// A chain of load->use pairs stalls on the 6-cycle local-hit latency;
	// the same loads without consumers do not.
	chained := run(t, `
	la  r8, buf
	lw  r9, 0(r8)
	add r10, r9, r9
	lw  r9, 0(r8)
	add r10, r9, r9
	lw  r9, 0(r8)
	add r10, r9, r9
	halt
buf:	.word 7
	`)
	free := run(t, `
	la  r8, buf
	lw  r9, 0(r8)
	add r10, r11, r11
	lw  r9, 0(r8)
	add r10, r11, r11
	lw  r9, 0(r8)
	add r10, r11, r11
	halt
buf:	.word 7
	`)
	c, f := chained.Unit(2), free.Unit(2)
	if c.Stall <= f.Stall {
		t.Errorf("load-use chain stalled %d cycles, independent %d: expected more stalls with dependences",
			c.Stall, f.Stall)
	}
}

func TestFPLatencyChain(t *testing.T) {
	// Dependent FP adds pay the 1+5 cycle latency each.
	dep := run(t, `
	fadd d16, d16, d16
	fadd d16, d16, d16
	fadd d16, d16, d16
	fadd d16, d16, d16
	halt
	`)
	ind := run(t, `
	fadd d16, d20, d22
	fadd d18, d20, d22
	fadd d24, d20, d22
	fadd d26, d20, d22
	halt
	`)
	if dep.Unit(2).Stall < ind.Unit(2).Stall+12 {
		t.Errorf("dependent FP chain stalls = %d, independent = %d; want >= 12 cycle gap",
			dep.Unit(2).Stall, ind.Unit(2).Stall)
	}
}

func TestIntDivBlocksThread(t *testing.T) {
	div := run(t, `
	li  r8, 100
	li  r9, 3
	div r10, r8, r9
	halt
	`)
	add := run(t, `
	li  r8, 100
	li  r9, 3
	add r10, r8, r9
	halt
	`)
	gap := div.Unit(2).Run - add.Unit(2).Run
	if gap != 32 { // 33-cycle divide vs 1-cycle add
		t.Errorf("divide run-cycle gap = %d, want 32", gap)
	}
}

func TestHardwareBarrierBetweenThreads(t *testing.T) {
	// Two threads synchronise through the wired-OR SPR; thread B busy
	// waits much longer because A loops before entering.
	chip := core.MustNew(arch.Default())
	m := New(chip, nil)
	m.MaxCycles = 1_000_000
	src := `
	; r4 = 1 for the slow thread, 0 for the fast one
	mfspr r8, 4		; current OR (bit0 armed by test)
	li   r9, 2000
	beq  r4, r0, enter
delay:	addi r9, r9, -1
	bne  r9, r0, delay
enter:	mfspr r10, 4		; own | OR
	; enter: clear bit0, set bit1
	li   r11, 2
	mtspr r11, 4
spin:	mfspr r12, 4
	andi r12, r12, 1
	bne  r12, r0, spin
	; both threads released: record the cycle
	mfspr r13, 2
	la   r14, out
	mfspr r15, 0		; tid
	slli r15, r15, 2
	add  r14, r14, r15
	sw   r13, 0(r14)
	halt
	.align 4
out:	.space 1024
	`
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	chip.LoadImage(p.Origin, p.Bytes)
	// Arm bit0 for both participants before start.
	chip.Barrier.Write(2, 1)
	chip.Barrier.Write(3, 1)
	m.Start(2, p.Entry)
	m.Start(3, p.Entry)
	m.Unit(2).Regs[4] = 1 // slow
	m.Unit(3).Regs[4] = 0 // fast
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	out := p.Symbols["out"]
	c2 := word(t, m, out+2*4)
	c3 := word(t, m, out+3*4)
	diff := int64(c2) - int64(c3)
	if diff < -20 || diff > 20 {
		t.Errorf("barrier release cycles differ by %d (thread2 %d, thread3 %d)", diff, c2, c3)
	}
	// Both threads ran at least the delay loop length.
	if c2 < 2000 {
		t.Errorf("released at cycle %d, before the slow thread could enter", c2)
	}
}

// Both engines stop a runaway loop at its first issue past the limit with
// the one error, which wraps timing.ErrCycleLimit.
func TestRunRespectsMaxCycles(t *testing.T) {
	for _, e := range Engines() {
		m, err := tryRunWithLimit("spin: b spin", 5000, e)
		if !errors.Is(err, timing.ErrCycleLimit) || err.Error() != "sim: cycle limit 5000 exceeded" || m.Cycle() != 5002 {
			t.Errorf("%v: runaway loop ended at cycle %d with %v", e, m.Cycle(), err)
		}
	}
}

func tryRunWithLimit(src string, limit uint64, engine Engine) (*Machine, error) {
	p, err := asm.Assemble(src)
	if err != nil {
		return nil, err
	}
	chip := core.MustNew(arch.Default())
	m := New(chip, nil)
	m.SetEngine(engine)
	m.MaxCycles = limit
	chip.LoadImage(p.Origin, p.Bytes)
	m.Start(2, p.Entry)
	return m, m.Run()
}

func TestStartValidation(t *testing.T) {
	chip := core.MustNew(arch.Default())
	m := New(chip, nil)
	if err := m.Start(-1, 0); err == nil {
		t.Error("negative tid accepted")
	}
	if err := m.Start(999, 0); err == nil {
		t.Error("huge tid accepted")
	}
	chip.DisableQuad(3)
	if err := m.Start(12, 0); err == nil {
		t.Error("thread in disabled quad accepted")
	}
	if err := m.Start(2, 0); err != nil {
		t.Error(err)
	}
	if err := m.Start(2, 0); err == nil {
		t.Error("double start accepted")
	}
}

// restartKernel drives the one case Start must refuse on a halted unit:
// the victim halts at its syscall, and the attacker, spinning on its own
// syscall every cycle, tries to restart it — first, whenever the rotation
// visits the victim before the attacker, in the very cycle of the halt.
type restartKernel struct {
	entry     uint32
	victim    int
	attacked  uint64 // last cycle the attacker issued in
	haltedAt  uint64 // cycle of the victim's first halt
	sameCycle error  // what Start said in that cycle
	restarted bool
}

func (k *restartKernel) Syscall(m *Machine, tu *TU) SysResult {
	if tu.ID == k.victim {
		// Halt the first time the attacker is still to come this cycle;
		// the second life halts at once.
		if k.restarted || (m.Cycle() > 50 && k.attacked != m.Cycle()) {
			if !k.restarted {
				k.haltedAt = m.Cycle()
			}
			return SysResult{Halt: true}
		}
		return SysResult{Cost: 1, Retry: true}
	}
	k.attacked = m.Cycle()
	if m.Unit(k.victim).State != Halted {
		return SysResult{Cost: 1, Retry: true}
	}
	err := m.Start(k.victim, k.entry)
	if m.Cycle() == k.haltedAt {
		k.sameCycle = err
	}
	if err != nil {
		return SysResult{Cost: 1, Retry: true}
	}
	k.restarted = true
	return SysResult{Halt: true}
}

// TestStartRefusesUnretiredUnit: a unit that halted earlier in the same
// cycle is still on the active list; starting it then would list it twice
// and issue it twice per cycle from then on.
func TestStartRefusesUnretiredUnit(t *testing.T) {
	p, err := asm.Assemble("spin:\tsyscall\n\tj spin\n")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range Engines() {
		t.Run(e.String(), func(t *testing.T) {
			chip := core.MustNew(arch.Default())
			k := &restartKernel{entry: p.Entry, victim: 2}
			m := New(chip, k)
			m.SetEngine(e)
			m.MaxCycles = 10_000
			if err := chip.LoadImage(p.Origin, p.Bytes); err != nil {
				t.Fatal(err)
			}
			for _, tid := range []int{2, 3} {
				if err := m.Start(tid, p.Entry); err != nil {
					t.Fatal(err)
				}
			}
			if err := m.Run(); err != nil {
				t.Fatal(err)
			}
			if k.haltedAt == 0 {
				t.Fatal("the victim never halted ahead of the attacker")
			}
			if k.sameCycle == nil || !strings.Contains(k.sameCycle.Error(), "not retired") {
				t.Errorf("Start in the cycle of the halt: %v, want a not-retired error", k.sameCycle)
			}
			if !k.restarted {
				t.Error("Start never succeeded once the unit was retired")
			}
			// One syscall per life, none retried as an instruction.
			if got := m.Unit(2).Insts; got != 2 {
				t.Errorf("victim issued %d instructions over two lives, want 2", got)
			}
		})
	}
}

func TestRunStallAccounting(t *testing.T) {
	m := run(t, `
	li r8, 50
loop:	addi r8, r8, -1
	bne r8, r0, loop
	halt
	`)
	tu := m.Unit(2)
	if tu.Run == 0 {
		t.Fatal("no run cycles recorded")
	}
	total := tu.EndCycle - tu.StartCycle
	if tu.Run+tu.Stall > total+2 {
		t.Errorf("run %d + stall %d exceeds elapsed %d", tu.Run, tu.Stall, total)
	}
	if tu.Insts < 100 {
		t.Errorf("instruction count = %d, want >= 100", tu.Insts)
	}
}

// mathFloat64frombits avoids importing math twice in test helpers.
func mathFloat64frombits(b uint64) float64 { return math.Float64frombits(b) }
