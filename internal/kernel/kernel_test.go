package kernel

import (
	"strings"
	"testing"

	"cyclops/internal/arch"
	"cyclops/internal/asm"
	"cyclops/internal/core"
	"cyclops/internal/isa"
	"cyclops/internal/sim"
)

func boot(t *testing.T, cfg arch.Config, src string) (*Kernel, *asm.Program) {
	t.Helper()
	k, p, err := tryBoot(cfg, src)
	if err != nil {
		t.Fatal(err)
	}
	return k, p
}

func tryBoot(cfg arch.Config, src string) (*Kernel, *asm.Program, error) {
	p, err := asm.Assemble(src)
	if err != nil {
		return nil, nil, err
	}
	chip, err := core.NewChip(cfg)
	if err != nil {
		return nil, nil, err
	}
	k := New(chip)
	k.Machine().MaxCycles = 5_000_000
	if err := k.Boot(p); err != nil {
		return nil, nil, err
	}
	return k, p, nil
}

func TestHelloOutput(t *testing.T) {
	k, _ := boot(t, arch.Default(), `
	li  a0, 1		; SysPutc
	li  a1, 'h'
	syscall
	li  a1, 'i'
	syscall
	li  a0, 2		; SysPutInt
	li  a1, -42
	syscall
	li  a0, 0		; SysExit
	syscall
	`)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got := string(k.Output); got != "hi-42" {
		t.Errorf("output = %q, want %q", got, "hi-42")
	}
}

func TestMainRunsOnFirstWorkerWithStack(t *testing.T) {
	k, _ := boot(t, arch.Default(), `
	sw   r0, -4(sp)		; stack is writable
	li   a0, 0
	syscall
	`)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	main := k.Machine().Unit(2)
	if main.State != sim.Halted {
		t.Error("main thread did not run on unit 2 (first worker)")
	}
	if main.Insts == 0 {
		t.Error("no instructions executed")
	}
}

// Spawn 10 workers that each add their argument into a shared counter
// atomically; main joins them all and stores the total.
const spawnSrc = `
	.equ NW, 10
_start:	li   r8, 0		; worker index
	la   r16, tids
spawnl:	li   a0, 3		; SysSpawn
	la   a1, worker
	mov  a2, r8		; arg = index
	syscall
	sw   a0, 0(r16)		; record tid
	addi r16, r16, 4
	addi r8, r8, 1
	slti r9, r8, NW
	bne  r9, r0, spawnl
	; join all
	li   r8, 0
	la   r16, tids
joinl:	li   a0, 4		; SysJoin
	lw   a1, 0(r16)
	syscall
	addi r16, r16, 4
	addi r8, r8, 1
	slti r9, r8, NW
	bne  r9, r0, joinl
	; publish the counter
	la   r9, ctr
	lw   r10, 0(r9)
	la   r11, out
	sw   r10, 0(r11)
	li   a0, 0
	syscall

worker:	la   r9, ctr
	addi r10, a0, 1		; arg+1
	amoadd r11, (r9), r10
	li   a0, 0
	syscall

	.align 4
ctr:	.word 0
out:	.word 0
tids:	.space 4*NW
`

func TestSpawnJoinAndAtomicCounter(t *testing.T) {
	k, p := boot(t, arch.Default(), spawnSrc)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	v, err := k.chip.Mem.Read32(p.Symbols["out"])
	if err != nil {
		t.Fatal(err)
	}
	// sum of arg+1 for arg=0..9 = 55.
	if v != 55 {
		t.Errorf("counter = %d, want 55", v)
	}
}

func TestSequentialAllocationFillsQuads(t *testing.T) {
	k, _ := boot(t, arch.Default(), spawnSrc)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// Main on 2; workers on 3..12 — quad 0 filled first.
	for tid := 3; tid <= 12; tid++ {
		if k.Machine().Unit(tid).Insts == 0 {
			t.Errorf("sequential policy skipped unit %d", tid)
		}
	}
	if k.Machine().Unit(33).Insts != 0 {
		t.Error("sequential policy scattered threads")
	}
}

func TestBalancedAllocationSpreadsQuads(t *testing.T) {
	p, _ := asm.Assemble(spawnSrc)
	chip := core.MustNew(arch.Default())
	k := New(chip)
	k.Policy = Balanced
	k.Machine().MaxCycles = 5_000_000
	if err := k.Boot(p); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// Balanced order starts at quad 0 slot 0 (units 2 and 3 reserved?
	// no: reserved are 0,1, so first usable slots are 4,8,12... plus 2,3
	// in quad 0). Count active quads: 11 threads should span 11 quads'
	// worth of slots rather than 3 quads.
	quads := map[int]int{}
	for tid := range k.Machine().Chip.Cfg.Threads {
		tu := k.Machine().Unit(tid)
		if tu.Insts > 0 {
			quads[arch.Default().QuadOf(tid)]++
		}
	}
	if len(quads) < 9 {
		t.Errorf("balanced policy used only %d quads for 11 threads", len(quads))
	}
	for q, n := range quads {
		if n > 2 {
			t.Errorf("balanced policy stacked %d threads on quad %d", n, q)
		}
	}
}

func TestPolicyString(t *testing.T) {
	if Sequential.String() != "sequential" || Balanced.String() != "balanced" {
		t.Error("policy names wrong")
	}
}

func TestSpawnExhaustionReturnsError(t *testing.T) {
	// Spawn more threads than exist; the kernel returns ^0 once full.
	k, p := boot(t, arch.Default(), `
	li   r8, 0
	li   r9, 200
loop:	li   a0, 3
	la   a1, worker
	li   a2, 0
	syscall
	li   r10, -1
	beq  a0, r10, full
	addi r8, r8, 1
	blt  r8, r9, loop
full:	la   r11, out
	sw   r8, 0(r11)
	li   a0, 0
	syscall
worker:	li   a0, 0
	syscall
	.align 4
out:	.word 0
	`)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	v, _ := k.chip.Mem.Read32(p.Symbols["out"])
	// 126 workers minus the main thread = 125 spawnable.
	if v != 125 {
		t.Errorf("spawned %d threads before exhaustion, want 125", v)
	}
}

func TestJoinUnknownTidTraps(t *testing.T) {
	k, _ := boot(t, arch.Default(), `
	li  a0, 4
	li  a1, 77
	syscall
	li  a0, 0
	syscall
	`)
	err := k.Run()
	if err == nil || !strings.Contains(err.Error(), "unknown thread") {
		t.Errorf("join of never-spawned tid: %v", err)
	}
}

func TestUnknownSyscallTraps(t *testing.T) {
	k, _ := boot(t, arch.Default(), "li a0, 99\nsyscall")
	err := k.Run()
	if err == nil || !strings.Contains(err.Error(), "unknown syscall") {
		t.Errorf("unknown syscall: %v", err)
	}
}

func TestBootRejectsImageOverlappingStacks(t *testing.T) {
	cfg := arch.Default()
	// 128 threads x 8 KB = 1 MB of stacks at the top of 8 MB.
	_, _, err := tryBoot(cfg, `
	.org 0x7fe000
	halt
	.space 0x3000
	`)
	if err == nil || !strings.Contains(err.Error(), "stack region") {
		t.Errorf("overlapping image: %v", err)
	}
}

func TestStackBase(t *testing.T) {
	chip := core.MustNew(arch.Default())
	k := New(chip)
	want := uint32(8<<20) - 128*(8<<10)
	if got := k.StackBase(); got != want {
		t.Errorf("StackBase = %#x, want %#x", got, want)
	}
	// Stacks are addressed through the own-cache interest group.
	sp := k.stackFor(5)
	if arch.GroupOf(sp).Mode != arch.GroupOwn {
		t.Error("stack pointer does not use the own-cache interest group")
	}
	if arch.Phys(sp) != 8<<20-5*(8<<10) {
		t.Errorf("stack top for tid 5 = %#x", arch.Phys(sp))
	}
}

func TestOffChipSyscalls(t *testing.T) {
	cfg := arch.Default()
	cfg.OffChipBytes = 1 << 20
	k, p := boot(t, cfg, `
	; write pattern, push block out, wipe, pull back
	la   r8, buf
	li   r9, 0x1234
	sw   r9, 0(r8)
	li   a0, 7		; SysOffChipWrite: a1=ext, a2=emb
	li   a1, 0
	mov  a2, r8
	syscall
	sw   r0, 0(r8)		; wipe
	li   a0, 6		; SysOffChipRead
	li   a1, 0
	mov  a2, r8
	syscall
	lw   r10, 0(r8)
	la   r11, out
	sw   r10, 0(r11)
	li   a0, 0
	syscall
	.align 1024
buf:	.space 1024
out:	.word 0
	`)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	v, _ := k.chip.Mem.Read32(p.Symbols["out"])
	if v != 0x1234 {
		t.Errorf("round trip through off-chip memory = %#x, want 0x1234", v)
	}
}

func TestOffChipWithoutHardwareTraps(t *testing.T) {
	k, _ := boot(t, arch.Default(), "li a0, 6\nsyscall")
	err := k.Run()
	if err == nil || !strings.Contains(err.Error(), "off-chip") {
		t.Errorf("off-chip syscall without hardware: %v", err)
	}
}

func TestWorkersGetDistinctStacks(t *testing.T) {
	chip := core.MustNew(arch.Default())
	k := New(chip)
	seen := map[uint32]bool{}
	for tid := 2; tid < 10; tid++ {
		sp := k.stackFor(tid)
		if seen[sp] {
			t.Fatalf("duplicate stack pointer %#x", sp)
		}
		seen[sp] = true
	}
}

func TestSpawnArmsBarrierContribution(t *testing.T) {
	k, _ := boot(t, arch.Default(), `
	li  a0, 0
	syscall
	`)
	// Before running, the booted main thread must already drive bit 0.
	if k.chip.Barrier.Read()&1 == 0 {
		t.Error("main thread's barrier contribution not armed at boot")
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// After exit the contribution is withdrawn.
	if k.chip.Barrier.Read() != 0 {
		t.Error("exited thread still drives the wired-OR")
	}
}

func TestSysThreads(t *testing.T) {
	k, p := boot(t, arch.Default(), `
	li  a0, 5
	syscall
	la  r8, out
	sw  a0, 0(r8)
	li  a0, 0
	syscall
out:	.word 0
	`)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	v, _ := k.chip.Mem.Read32(p.Symbols["out"])
	if v != 126 {
		t.Errorf("SysThreads = %d, want 126", v)
	}
	_ = isa.SysThreads
}
