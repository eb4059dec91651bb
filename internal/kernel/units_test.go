package kernel

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"

	"cyclops/internal/arch"
	"cyclops/internal/asm"
	"cyclops/internal/core"
	"cyclops/internal/prof"
)

var update = flag.Bool("update", false, "rewrite testdata/one_thread_totals.golden")

// oneThreadSrc is a single thread that loads, stores and computes, so its
// ledger holds run, stall and memory-wait cycles, then prints and exits.
const oneThreadSrc = `
	la   r8, buf
	li   r9, 16
	li   r11, 0
loop:	sw   r9, 0(r8)
	lw   r10, 0(r8)
	add  r11, r11, r10
	mul  r11, r11, r9
	addi r8, r8, 4
	addi r9, r9, -1
	bne  r9, r0, loop
	li   a0, 2
	add  a1, r11, r0
	syscall
	li   a0, 0
	syscall
	.align 4
buf:	.space 64
`

// TestNeverStartedUnitsReadIdle: a 1-thread program on the 128-unit chip
// starts one unit, and the machine builds units only as they are started
// or read. Its instruction count, ledger totals and snapshot read the 127
// others as idle, with or without a profiler and timeline attached, byte
// for byte as testdata/one_thread_totals.golden pins them (written when
// sim.New still built every unit).
func TestNeverStartedUnitsReadIdle(t *testing.T) {
	p, err := asm.Assemble(oneThreadSrc)
	if err != nil {
		t.Fatal(err)
	}
	var first string
	for _, c := range []struct{ prof, timeline bool }{{false, false}, {true, false}, {false, true}, {true, true}} {
		k := New(core.MustNew(arch.Default()))
		m := k.Machine()
		if c.prof {
			m.AttachProfile(prof.New(1))
		}
		if c.timeline {
			m.AttachTimeline(prof.NewTimeline(16))
		}
		if err := k.Boot(p); err != nil {
			t.Fatal(err)
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		fmt.Fprintf(&b, "output=%s\ninsts=%d\ntotals=%+v\n", k.Output, m.TotalInsts(), m.Totals())
		if err := m.Snapshot().WriteJSON(&b); err != nil {
			t.Fatal(err)
		}
		got := b.String()
		if first == "" {
			first = got
			if *update {
				if err := os.WriteFile("testdata/one_thread_totals.golden", []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile("testdata/one_thread_totals.golden")
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("totals and snapshot moved:\n%s\nwant\n%s", got, want)
			}
		} else if got != first {
			t.Errorf("profiler %v, timeline %v: totals and snapshot\n%s\nwithout either\n%s", c.prof, c.timeline, got, first)
		}
	}
}

// TestFreeWorkerSkipsDisabledQuadsAndStartedUnits: with the first three
// quads out of service, spawn hands out the usable workers in allocation
// order and never a unit in a disabled quad, skipping the one a caller
// started on the machine directly, until none is left.
func TestFreeWorkerSkipsDisabledQuadsAndStartedUnits(t *testing.T) {
	cfg := arch.Default()
	cfg.DisabledQuads = 3
	k, p := boot(t, cfg, `
	li   r8, 0
	la   r12, tids
loop:	li   a0, 3
	la   a1, worker
	li   a2, 0
	syscall
	li   r10, -1
	beq  a0, r10, full
	sw   a0, 0(r12)
	addi r12, r12, 4
	addi r8, r8, 1
	b    loop
full:	la   r11, out
	sw   r8, 0(r11)
	li   a0, 0
	syscall
worker:	li   a0, 0
	syscall
	.align 4
out:	.word 0
tids:	.space 512
	`)
	order := k.chip.WorkerOrder(false)
	if order[0] != 12 {
		t.Fatalf("main thread on unit %d, want 12, the first unit of quad 3", order[0])
	}
	manual := order[5]
	if err := k.Machine().Start(manual, p.Symbols["worker"]); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	n, _ := k.chip.Mem.Read32(p.Symbols["out"])
	want := slices.DeleteFunc(slices.Clone(order[1:]), func(tid int) bool { return tid == manual })
	if int(n) != len(want) {
		t.Fatalf("spawned %d threads, want %d", n, len(want))
	}
	for i, tid := range want {
		got, _ := k.chip.Mem.Read32(p.Symbols["tids"] + uint32(4*i))
		if int(got) != tid {
			t.Errorf("spawn %d went to unit %d, want %d", i, got, tid)
		}
		if !k.chip.ThreadUsable(int(got)) {
			t.Errorf("spawn %d went to unit %d in a disabled quad", i, got)
		}
	}
}
