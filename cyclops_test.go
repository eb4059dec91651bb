package cyclops_test

import (
	"strings"
	"testing"

	"cyclops"
	"cyclops/internal/prof"
)

const helloSrc = `
	la   r8, msg
loop:	lbu  a1, 0(r8)
	beq  a1, r0, done
	li   a0, 1		; SysPutc
	syscall
	addi r8, r8, 1
	b    loop
done:	li   a0, 0		; SysExit
	syscall
msg:	.asciz "hello, cyclops\n"
`

func TestPublicQuickstart(t *testing.T) {
	prog, err := cyclops.Assemble(helloSrc)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := cyclops.NewSystem(cyclops.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sys.MaxCycles(1_000_000)
	if err := sys.Boot(prog); err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if got := string(sys.Output()); got != "hello, cyclops\n" {
		t.Errorf("output = %q", got)
	}
	if sys.Cycles() == 0 {
		t.Error("no cycles elapsed")
	}
	stats := sys.Stats()
	if stats[2].Insts == 0 {
		t.Error("main thread executed nothing")
	}
}

// TestStatsReportsEveryUnit: Stats has one entry per thread unit of the
// chip, whether or not the run started it. The hello program starts unit 2
// only; the other 127 read zero, and unit 2's counters are the same with a
// profiler and timeline attached.
func TestStatsReportsEveryUnit(t *testing.T) {
	prog, err := cyclops.Assemble(helloSrc)
	if err != nil {
		t.Fatal(err)
	}
	for _, observed := range []bool{false, true} {
		sys, err := cyclops.NewSystem(cyclops.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if observed {
			sys.Machine().AttachProfile(prof.New(1))
			sys.Machine().AttachTimeline(prof.NewTimeline(16))
		}
		if err := sys.Boot(prog); err != nil {
			t.Fatal(err)
		}
		if err := sys.Run(); err != nil {
			t.Fatal(err)
		}
		stats := sys.Stats()
		if len(stats) != 128 {
			t.Fatalf("observed %v: %d entries, want one per unit (128)", observed, len(stats))
		}
		for tid, st := range stats {
			want := cyclops.ThreadStats{}
			if tid == 2 {
				want = cyclops.ThreadStats{Run: 172, Stall: 112, Insts: 96}
			}
			if st != want {
				t.Errorf("observed %v: unit %d = %+v, want %+v", observed, tid, st, want)
			}
		}
	}
}

func TestPublicDisassemble(t *testing.T) {
	prog, err := cyclops.Assemble("add r3, r4, r5\nhalt")
	if err != nil {
		t.Fatal(err)
	}
	dis := cyclops.Disassemble(prog)
	if !strings.Contains(dis, "add r3, r4, r5") {
		t.Errorf("disassembly wrong:\n%s", dis)
	}
}

func TestPublicEffectiveAddresses(t *testing.T) {
	ea := cyclops.EA(cyclops.InterestGroup{Mode: cyclops.GroupOne, Sel: 8}, 0x1234)
	if ea&0xffffff != 0x1234 {
		t.Error("physical part mangled")
	}
	if ea>>24 == 0 {
		t.Error("placement bits missing")
	}
}

func TestPublicTimingMachine(t *testing.T) {
	m, err := cyclops.NewTimingMachine(cyclops.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ea := m.SharedAlloc(4096)
	var done uint64
	if _, err := m.Spawn(func(th *cyclops.Thread) {
		v := th.LoadF64(ea)
		w := th.FMA(v)
		th.StoreF64(ea, w)
		done = th.Now()
	}); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if done == 0 || m.Elapsed() == 0 {
		t.Error("timing machine measured nothing")
	}
}

func TestPublicInvalidConfigRejected(t *testing.T) {
	cfg := cyclops.DefaultConfig()
	cfg.Threads = -1
	if _, err := cyclops.NewSystem(cfg); err == nil {
		t.Error("invalid config accepted")
	}
	if _, err := cyclops.NewTimingMachine(cfg); err == nil {
		t.Error("invalid config accepted by timing machine")
	}
}

func TestPublicBalancedAllocation(t *testing.T) {
	prog, err := cyclops.Assemble(`
	li a0, 3	; spawn one worker
	la a1, w
	li a2, 0
	syscall
	mov r9, a0	; worker tid
	li a0, 4	; join it
	mov a1, r9
	syscall
	li a0, 0
	syscall
w:	li a0, 0
	syscall
	`)
	if err != nil {
		t.Fatal(err)
	}
	sys, _ := cyclops.NewSystem(cyclops.DefaultConfig())
	sys.SetBalancedAllocation(true)
	sys.MaxCycles(100_000)
	if err := sys.Boot(prog); err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
}
