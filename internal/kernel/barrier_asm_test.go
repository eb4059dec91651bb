package kernel

import (
	"fmt"
	"slices"
	"testing"

	"cyclops/internal/arch"
	"cyclops/internal/asm"
	"cyclops/internal/core"
	"cyclops/internal/isa"
)

// The Section 3.3 motivation, at the instruction level: a barrier through
// the wired-OR SPR versus a software barrier through shared memory, both
// written in Cyclops assembly and timed on the instruction simulator.
//
// The software variant is a centralized sense-reversing counter barrier:
// amoadd on a shared counter, then spin-loading a generation word — the
// "memory-based synchronization [that] could be very slow" which
// motivated the hardware (Section 1/2.3).

// hwBarrierSrc synchronises NW workers ROUNDS times through SPR 4.
func hwBarrierSrc(workers, rounds int) string {
	return fmt.Sprintf(`
	.equ NW, %d
	.equ ROUNDS, %d
_start:	li   r8, 1
	li   r9, NW
spawn:	li   a0, 3
	la   a1, thread
	mov  a2, r8
	syscall
	addi r8, r8, 1
	blt  r8, r9, spawn
	li   a0, 0
	j    thread

thread:	mov  r30, a0
	li   r26, 1		; current mask
	li   r27, 2		; next mask
	li   r24, ROUNDS
	; record start cycle (main only)
	bne  r30, r0, loop
	mfspr r20, 2
	la   r21, t0
	sw   r20, 0(r21)
loop:	mtspr r27, 4
spin:	mfspr r9, 4
	and  r9, r9, r26
	bne  r9, r0, spin
	mov  r9, r26
	mov  r26, r27
	mov  r27, r9
	addi r24, r24, -1
	bne  r24, r0, loop
	bne  r30, r0, out
	mfspr r20, 2
	la   r21, t1
	sw   r20, 0(r21)
out:	li   a0, 0
	syscall
	.align 8
t0:	.word 0
t1:	.word 0
`, workers, rounds)
}

// swBarrierSrc is the same structure with a counter barrier in memory.
// The shared words live at a chip-wide-shared effective address so the
// spin traffic crosses the cache switch like any shared data.
func swBarrierSrc(workers, rounds int) string {
	return fmt.Sprintf(`
	.equ NW, %d
	.equ ROUNDS, %d
	.equ SHARED, 6 << 29	; interest group: one of all 32 caches
_start:	li   r8, 1
	li   r9, NW
spawn:	li   a0, 3
	la   a1, thread
	mov  a2, r8
	syscall
	addi r8, r8, 1
	blt  r8, r9, spawn
	li   a0, 0
	j    thread

thread:	mov  r30, a0
	la   r14, counter
	li   r15, SHARED
	or   r14, r14, r15	; &counter, shared placement
	la   r16, gen
	or   r16, r16, r15	; &generation, shared placement
	li   r24, ROUNDS
	li   r25, 0		; local generation
	bne  r30, r0, loop
	mfspr r20, 2
	la   r21, t0
	sw   r20, 0(r21)
loop:	li   r9, 1
	amoadd r10, (r14), r9	; arrive
	addi r11, r10, 1
	li   r12, NW
	bne  r11, r12, wait
	; last arrival: reset the counter, bump the generation
	sw   r0, 0(r14)
	addi r13, r25, 1
	sw   r13, 0(r16)
	b    done
wait:	lw   r13, 0(r16)	; spin on the generation word
	bleu r13, r25, wait
done:	addi r25, r25, 1
	addi r24, r24, -1
	bne  r24, r0, loop
	bne  r30, r0, out
	mfspr r20, 2
	la   r21, t1
	sw   r20, 0(r21)
out:	li   a0, 0
	syscall
	.align 8
counter: .word 0
gen:	.word 0
t0:	.word 0
t1:	.word 0
`, workers, rounds)
}

// runBarrierBench boots a source and returns the measured cycles per
// barrier round. Only the opcodes in generic (besides syscall) may reach
// Machine.issue from the block engine.
func runBarrierBench(t *testing.T, src string, rounds int, generic ...isa.Op) uint64 {
	t.Helper()
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	chip := core.MustNew(arch.Default())
	k := New(chip)
	k.Machine().MaxCycles = 50_000_000
	if err := k.Boot(p); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	gs := k.Machine().GenericStats()
	for _, op := range gs.Ops() {
		if op != isa.OpSYSCALL && !slices.Contains(generic, op) {
			t.Errorf("%d issue attempts of %s took the generic path", gs.ByOp[op], op)
		}
	}
	t0, _ := chip.Mem.Read32(p.Symbols["t0"])
	t1, _ := chip.Mem.Read32(p.Symbols["t1"])
	if t1 <= t0 {
		t.Fatalf("timing region collapsed: t0=%d t1=%d", t0, t1)
	}
	return uint64(t1-t0) / uint64(rounds)
}

func TestAsmHardwareBarrierBeatsSoftware(t *testing.T) {
	const rounds = 10
	for _, workers := range []int{4, 16, 64} {
		// The hardware barrier — mtspr, the mfspr spin — runs entirely on
		// specialized bodies; the software barrier's amoadd has none.
		hw := runBarrierBench(t, hwBarrierSrc(workers, rounds), rounds)
		sw := runBarrierBench(t, swBarrierSrc(workers, rounds), rounds, isa.OpAMOADD)
		if hw >= sw {
			t.Errorf("%d threads: hw barrier %d cycles/round not below sw %d", workers, hw, sw)
		}
		// The wired-OR should stay within tens of cycles per round;
		// the counter barrier serialises amoadds on one location.
		if workers == 64 && hw > 200 {
			t.Errorf("hw barrier at 64 threads costs %d cycles/round, want < 200", hw)
		}
		t.Logf("%2d threads: hw %4d cycles/round, sw %5d", workers, hw, sw)
	}
}

// The barrier must actually synchronise: a worker that skips straight to
// the barrier cannot pass until the delayed workers arrive.
func TestAsmHWBarrierReallySynchronises(t *testing.T) {
	src := `
	.equ NW, 3
_start:	li   r8, 1
	li   r9, NW
spawn:	li   a0, 3
	la   a1, thread
	mov  a2, r8
	syscall
	addi r8, r8, 1
	blt  r8, r9, spawn
	li   a0, 0
	j    thread
thread:	mov  r30, a0
	; stagger: thread k delays 1000*k cycles of work
	li   r9, 400
	mul  r9, r9, r30
	beq  r9, r0, enter
delay:	addi r9, r9, -1
	bne  r9, r0, delay
enter:	li   r27, 2
	mtspr r27, 4
spin:	mfspr r9, 4
	andi r9, r9, 1
	bne  r9, r0, spin
	; record release cycle per thread
	mfspr r20, 2
	la   r21, out
	slli r22, r30, 2
	add  r21, r21, r22
	sw   r20, 0(r21)
	li   a0, 0
	syscall
	.align 8
out:	.space 4*NW
	`
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	chip := core.MustNew(arch.Default())
	k := New(chip)
	k.Machine().MaxCycles = 10_000_000
	if err := k.Boot(p); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	out := p.Symbols["out"]
	var rel [3]uint32
	for i := range rel {
		rel[i], _ = chip.Mem.Read32(out + uint32(4*i))
	}
	for i := 1; i < 3; i++ {
		d := int64(rel[i]) - int64(rel[0])
		if d < -30 || d > 30 {
			t.Errorf("thread %d released %d cycles apart from thread 0", i, d)
		}
	}
	// Release cannot precede the slowest thread's delay (~2*400 loop
	// iterations at ~3 cycles each).
	if rel[0] < 1500 {
		t.Errorf("released at %d, before the slowest thread entered", rel[0])
	}
}
