package sim

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"cyclops/internal/arch"
	"cyclops/internal/asm"
	"cyclops/internal/core"
	"cyclops/internal/isa"
	"cyclops/internal/obs"
	"cyclops/internal/prof"
	"cyclops/internal/timing"
)

func TestSPRReads(t *testing.T) {
	src := `
	mfspr r8, 0		; tid
	mfspr r9, 1		; nthreads
	mfspr r10, 3		; cycle hi
	mfspr r11, 5		; memsize
	mfspr r12, 6		; quad
	la   r20, out
	sw   r8, 0(r20)
	sw   r9, 4(r20)
	sw   r10, 8(r20)
	sw   r11, 12(r20)
	sw   r12, 16(r20)
	sync
	halt
out:	.space 20
	`
	m := run(t, src)
	p, _ := asm.Assemble(src)
	o := p.Symbols["out"]
	if v := word(t, m, o); v != 2 {
		t.Errorf("tid = %d, want 2", v)
	}
	if v := word(t, m, o+4); v != 128 {
		t.Errorf("nthreads = %d", v)
	}
	if v := word(t, m, o+8); v != 0 {
		t.Errorf("cycle hi = %d early in a run", v)
	}
	if v := word(t, m, o+12); v != 8<<20 {
		t.Errorf("memsize = %d, want 8 MB", v)
	}
	if v := word(t, m, o+16); v != 0 {
		t.Errorf("quad of thread 2 = %d, want 0", v)
	}
	// Unknown SPR traps.
	if _, err := tryRun("mfspr r8, 7\nhalt"); err == nil {
		t.Error("mfspr of undefined SPR succeeded")
	}
}

func TestCallAndReturn(t *testing.T) {
	src := `
_start:	li   r8, 5
	call double
	call double
	la   r20, out
	sw   r8, 0(r20)
	halt
double:	add  r8, r8, r8
	ret
out:	.word 0
	`
	m := run(t, src)
	p, _ := asm.Assemble(src)
	if v := word(t, m, p.Symbols["out"]); v != 20 {
		t.Errorf("double twice = %d, want 20", v)
	}
}

func TestJalrComputedTarget(t *testing.T) {
	src := `
	la   r8, target
	jalr r9, 0(r8)
	halt			; skipped
target:	la   r20, out
	sw   r9, 0(r20)		; link = address after jalr
	halt
out:	.word 0
	`
	m := run(t, src)
	p, _ := asm.Assemble(src)
	link := word(t, m, p.Symbols["out"])
	// jalr is the program's third word (after the 2-word la).
	if link != p.Origin+12 {
		t.Errorf("link = %#x, want %#x", link, p.Origin+12)
	}
	// Unaligned indirect targets trap.
	if _, err := tryRun("li r8, 2\njalr r9, 0(r8)"); err == nil ||
		!strings.Contains(err.Error(), "unaligned") {
		t.Errorf("unaligned jalr: %v", err)
	}
}

func TestAllBranchConditions(t *testing.T) {
	// Each branch both taken and not taken; result accumulates a bitmask
	// of taken branches.
	src := `
	li   r8, 1
	li   r9, 2
	li   r10, -1
	li   r20, 0
	beq  r8, r8, t0
	b    n0
t0:	ori  r20, r20, 1
n0:	bne  r8, r9, t1
	b    n1
t1:	ori  r20, r20, 2
n1:	blt  r10, r8, t2	; signed: -1 < 1
	b    n2
t2:	ori  r20, r20, 4
n2:	bge  r8, r9, t3		; not taken
	b    n3
t3:	ori  r20, r20, 8
n3:	bltu r8, r10, t4	; unsigned: 1 < 0xffffffff
	b    n4
t4:	ori  r20, r20, 16
n4:	bgeu r10, r8, t5	; unsigned: 0xffffffff >= 1
	b    n5
t5:	ori  r20, r20, 32
n5:	la   r21, out
	sw   r20, 0(r21)
	halt
out:	.word 0
	`
	m := run(t, src)
	p, _ := asm.Assemble(src)
	if v := word(t, m, p.Symbols["out"]); v != 1|2|4|16|32 {
		t.Errorf("branch mask = %#b, want 0b110111", v)
	}
}

func TestFPRemainingOps(t *testing.T) {
	src := `
	la   r8, in
	ld   d16, 0(r8)		; -2.5
	fneg d18, d16		; 2.5
	fabs d20, d16		; 2.5
	fmov d22, d18
	fms  d24, d18, d20, d22	; 2.5*2.5 - 2.5 = 3.75
	fceq r9, d18, d20	; 1
	fcle r10, d16, d18	; 1
	fcle r11, d18, d16	; 0
	la   r12, out
	sd   d24, 0(r12)
	sw   r9, 8(r12)
	sw   r10, 12(r12)
	sw   r11, 16(r12)
	halt
	.align 8
in:	.double -2.5
out:	.space 24
	`
	m := run(t, src)
	p, _ := asm.Assemble(src)
	o := p.Symbols["out"]
	bits, _ := m.Chip.Mem.Read64(o)
	if f := mathFloat64frombits(bits); f != 3.75 {
		t.Errorf("fms = %v, want 3.75", f)
	}
	if word(t, m, o+8) != 1 || word(t, m, o+12) != 1 || word(t, m, o+16) != 0 {
		t.Error("fp compares wrong")
	}
}

func TestRunningThreadsAndTotals(t *testing.T) {
	m, err := tryRun("li r8, 1\nhalt")
	if err != nil {
		t.Fatal(err)
	}
	if m.RunningThreads() != 0 {
		t.Errorf("RunningThreads after halt = %d", m.RunningThreads())
	}
	if m.TotalInsts() < 2 {
		t.Errorf("TotalInsts = %d", m.TotalInsts())
	}
	if m.Cycle() == 0 {
		t.Error("Cycle() = 0 after a run")
	}
}

func TestPIBCrossingLoop(t *testing.T) {
	// A loop longer than the 16-instruction PIB refills every iteration,
	// paying fetch bubbles; a tight loop does not.
	long := "loop:\n" + strings.Repeat("\tadd r8, r8, r9\n", 20) +
		"\taddi r10, r10, -1\n\tbne r10, r0, loop\n\thalt"
	short := "loop:\n" + strings.Repeat("\tadd r8, r8, r9\n", 4) +
		"\taddi r10, r10, -1\n\tbne r10, r0, loop\n\thalt"
	prep := "\tli r10, 200\n"
	mLong := run(t, prep+long)
	mShort := run(t, prep+short)
	perInstLong := float64(mLong.TUs[2].Stall) / float64(mLong.TUs[2].Insts)
	perInstShort := float64(mShort.TUs[2].Stall) / float64(mShort.TUs[2].Insts)
	if perInstLong <= perInstShort {
		t.Errorf("PIB-crossing loop stalls %.3f/inst, tight loop %.3f/inst; expected more",
			perInstLong, perInstShort)
	}
}

func TestSetRegIgnoresR0(t *testing.T) {
	m := run(t, `
	li  r8, 7
	add r0, r8, r8		; write to the zero register
	la  r20, out
	sw  r0, 0(r20)
	halt
out:	.word 1
	`)
	p, _ := asm.Assemble("nop\nout:.word 1")
	_ = p
	pp, _ := asm.Assemble(`
	li  r8, 7
	add r0, r8, r8
	la  r20, out
	sw  r0, 0(r20)
	halt
out:	.word 1
	`)
	if v := word(t, m, pp.Symbols["out"]); v != 0 {
		t.Errorf("r0 = %d after write, want 0", v)
	}
}

// bodyScenarios are the issue policies every specialized-body case runs
// under: fine-grained, and the two that add a switch penalty to the
// stall events the bodies can raise (dependence, FPU structural wait and
// store backpressure under blocked; a data miss under switch-on-miss).
func bodyScenarios() []diffScenario {
	lat := timing.DefaultLatencies()
	return []diffScenario{
		{pol: timing.FineGrain{}, lat: lat},
		{pol: timing.Blocked{Pen: 5}, lat: lat},
		{pol: timing.SwitchOnMiss{Pen: 7}, lat: lat},
	}
}

// quad1 is four thread units sharing one FPU and one cache port, so
// their same-cycle fp ops and stores collide.
var quad1 = []int{4, 5, 6, 7}

// bodyPrologue gives each unit r16 = &data (one line every unit shares)
// and r17 = its own line behind it; the tid read is the one mfspr with
// no specialized body.
const bodyPrologue = `
_start:	la   r16, data
	mfspr r20, 0
	andi r20, r20, 3
	slli r21, r20, 6
	add  r17, r16, r21
`

const bodyData = `
	.align 64
data:	.double 1.5, 2.25, -0.75, 1024.0
	.word 1, 2, 3, 4
	.space 16
	.space 4*64
`

// TestSpecializedBodies runs every arm — commit, dependence stall on each
// source, structural and backpressure waits — of the sd, fadd/fmul/fma,
// mfspr and mtspr bodies, one unit alone (whole blocks inline) and four
// colliding units (one issue per batch), block engine against the legacy
// oracle on snapshot, registers and memory.
func TestSpecializedBodies(t *testing.T) {
	cases := []struct {
		name, body string
	}{
		{"sd", `
	ld   d32, 0(r16)
	sd   d32, 64(r17)	; waits on the pair the load fills
	lw   r35, 32(r16)
	sd   d34, 72(r17)	; waits on the high half alone
	li   r19, 1
	mul  r18, r17, r19
	sd   d32, 80(r18)	; waits on the base register
	li   r22, 24
burst:	sd   d32, 48(r16)	; every unit, one line: port and bank backpressure
	sd   d34, 88(r17)
	addi r22, r22, -1
	bne  r22, r0, burst
	halt
`},
		{"fp", `
	ld   d32, 0(r16)
	ld   d34, 8(r16)
	fadd d36, d32, d34	; waits on both source pairs
	ld   d38, 16(r16)
	fmul d40, d36, d38	; waits on the pipe result and a load
	ld   d42, 24(r16)
	fma  d44, d32, d34, d42	; waits on the addend pair alone
	fma  d46, d44, d40, d36
	li   r22, 6
chain:	fadd d36, d36, d32	; units of one quad collide on the pipes
	fmul d40, d40, d34
	fma  d44, d36, d40, d44
	addi r22, r22, -1
	bne  r22, r0, chain
	sd   d36, 64(r17)
	sd   d40, 72(r17)
	sd   d44, 80(r17)
	sd   d46, 88(r17)
	halt
`},
		{"spr", `
	add  r8, r20, r20
	add  r9, r8, r20
	mfspr r10, 2		; reached inline: continuation has moved the clock
	mfspr r11, 2
	sub  r12, r11, r10
	lw   r27, 32(r16)
	mtspr r27, 4		; waits on the load
	mfspr r13, 4
	addi r14, r13, 1
	mfspr r15, 4		; mid-block, behind two ALU ops
	li   r27, 0
	mtspr r27, 4
	mfspr r23, 4
	sw   r10, 64(r17)
	sw   r12, 68(r17)
	sw   r13, 72(r17)
	sw   r23, 76(r17)
	halt
`},
	}
	fast := []isa.Op{isa.OpSD, isa.OpFADD, isa.OpFMUL, isa.OpFMA, isa.OpMTSPR}
	for _, tc := range cases {
		for _, sc := range bodyScenarios() {
			for _, tids := range [][]int{{4}, quad1} {
				name := fmt.Sprintf("%s/%s/%d units", tc.name, sc, len(tids))
				m, err := diffCompare(t, name, bodyPrologue+tc.body+bodyData, sc, tids...)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				gs := m.GenericStats()
				for _, op := range fast {
					if gs.ByOp[op] != 0 {
						t.Errorf("%s: %d attempts of %s took the generic path", name, gs.ByOp[op], op)
					}
				}
				// Only the prologue's tid read: once per unit, never stalled.
				if got := gs.ByOp[isa.OpMFSPR]; got != uint64(len(tids)) {
					t.Errorf("%s: %d generic mfspr attempts, want %d", name, got, len(tids))
				}
				if tc.name != "spr" && m.TUs[tids[0]].Stall == 0 {
					t.Errorf("%s: no stall cycle was charged; the wait arms did not run", name)
				}
			}
		}
	}
}

// TestSpecializedBodyTraps: the trap arms of the memory ops stay in their
// bodies; an fp destination that is not a legal non-zero pair, and every SPR without a
// body, keep the generic closure and so Machine.issue's trap.
func TestSpecializedBodyTraps(t *testing.T) {
	cases := []struct {
		name, body, want string
		generic          isa.Op // the opcode that must have trapped generically
	}{
		{"unaligned sd", "sd d32, 4(r16)", "unaligned 8-byte access", 0},
		{"sd beyond memory", "li r18, 0x800000\n\tsd d32, 0(r18)", "beyond working memory", 0},
		{"unaligned sw", "sw r32, 2(r16)", "unaligned 4-byte access", 0},
		{"sw beyond memory", "li r18, 0x800000\n\tsw r32, 0(r18)", "beyond working memory", 0},
		{"lw beyond memory", "li r18, 0x800000\n\tlw r8, 0(r18)", "beyond working memory", 0},
		{"ld beyond memory", "li r18, 0x800000\n\tld d36, 0(r18)", "beyond working memory", 0},
		{"odd fadd destination", "fadd r9, d32, d34", "bad fp destination r9", isa.OpFADD},
		{"r0 fmul destination", "fmul r0, d32, d34", "bad fp destination r0", isa.OpFMUL},
		{"r63 fma destination", "fma r63, d32, d34, d32", "bad fp destination r63", isa.OpFMA},
		{"mfspr of an undefined SPR", "mfspr r9, 7", "mfspr 7", isa.OpMFSPR},
		{"mtspr of a read-only SPR", "mtspr r9, 2", "not writable", isa.OpMTSPR},
	}
	for _, tc := range cases {
		for _, sc := range bodyScenarios() {
			src := "_start:\tla r16, data\n\tld d32, 0(r16)\n\tld d34, 8(r16)\n\t" + tc.body + "\n\thalt\n" + bodyData
			m, err := diffCompare(t, tc.name, src, sc)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s (%s): error %v, want one mentioning %q", tc.name, sc, err, tc.want)
			}
			gs := m.GenericStats()
			if tc.generic != 0 && gs.ByOp[tc.generic] == 0 {
				t.Errorf("%s (%s): the trap did not come from the generic closure", tc.name, sc)
			}
			if tc.generic == 0 && gs.Attempts != 0 {
				t.Errorf("%s (%s): %d generic attempts (%v), want the body's own trap arm", tc.name, sc, gs.Attempts, gs.Ops())
			}
		}
	}
}

// observedSrc issues every op that has a specialized body, with the
// dependence-stall arm of the indirect jump and the loads, so that a run
// with a tracer or a profiler attached executes their observer hooks.
const observedSrc = `
_start:	la   r16, data
	ld   d32, 0(r16)
	ld   d34, 8(r16)
	lw   r18, 32(r16)
	jalr r31, 0(r18)	; waits on the load: an indirect call
	jal  r31, fn		; a direct call
	jal  r0, over		; a plain jump: no frame
over:	lw   r19, 36(r16)
	ld   d36, 16(r19)	; waits on its base
	lw   r21, 36(r16)
	lw   r8, 40(r21)	; waits on its base
	fadd d38, d32, d34
	fmul d40, d32, d36
	fma  d42, d38, d40, d34
	sd   d42, 64(r16)
	sw   r8, 72(r16)
	mtspr r8, 4
	mfspr r9, 4
	mfspr r10, 2
	mtspr r0, 4
	halt
fn:	add  r8, r8, r8
	jalr r0, 0(r31)		; the return idiom
	.align 64
data:	.double 1.5, 2.25, -0.75, 1024.0
	.word fn, data, 3, 4
	.space 64
`

// TestOpBodiesUnderObservers: the specialized bodies record the same
// trace and feed the profiler the same charges and call frames as the
// legacy engine's issue path.
func TestOpBodiesUnderObservers(t *testing.T) {
	p, err := asm.Assemble(observedSrc)
	if err != nil {
		t.Fatal(err)
	}
	observe := func(e Engine, trace *TraceBuffer, pr *prof.Profile) string {
		chip := core.MustNew(arch.Default())
		m := New(chip, nil)
		m.SetEngine(e)
		m.MaxCycles = 100_000
		m.Trace = trace
		if pr != nil {
			m.AttachProfile(pr)
		}
		if err := chip.LoadImage(p.Origin, p.Bytes); err != nil {
			t.Fatal(err)
		}
		if err := m.Start(2, p.Entry); err != nil {
			t.Fatal(err)
		}
		if err := m.Run(); err != nil {
			t.Fatalf("%s: %v", e, err)
		}
		if gs := m.GenericStats(); e == EngineBlock && (len(gs.Ops()) != 1 || gs.ByOp[isa.OpHALT] != 1) {
			t.Errorf("generic attempts %v, want the halt alone", gs.Ops())
		}
		return diffState(m, nil)
	}
	var traces, folded, states [2]string
	for i, e := range Engines() {
		buf := NewTraceBuffer(256)
		states[i] = observe(e, buf, nil)
		traces[i] = buf.Dump()
		pr := prof.New(1)
		var sb strings.Builder
		states[i] += observe(e, nil, pr)
		if err := pr.WriteFolded(&sb, p); err != nil {
			t.Fatal(err)
		}
		folded[i] = sb.String()
	}
	if traces[0] != traces[1] {
		t.Errorf("traces differ\n--- block ---\n%s--- legacy ---\n%s", traces[0], traces[1])
	}
	if n := strings.Count(traces[0], "\n"); n < 25 {
		t.Errorf("trace holds %d lines, want every issue of the program", n)
	}
	if folded[0] != folded[1] {
		t.Errorf("profiles differ\n--- block ---\n%s--- legacy ---\n%s", folded[0], folded[1])
	}
	if !strings.Contains(folded[0], "fn;") {
		t.Errorf("no sample carries fn's call frame:\n%s", folded[0])
	}
	if states[0] != states[1] {
		t.Errorf("final state differs\n--- block ---\n%s--- legacy ---\n%s", states[0], states[1])
	}
}

// aluBranchOperands are the source pairs every ALU and branch body sees:
// ordered both ways, equal, and a negative against a positive (where the
// signed and unsigned compares disagree), so each conditional branch is
// both taken and not taken.
const aluBranchOperands = `
	.align 64
data:	.word 1, 2,  2, 1,  3, 3,  -1, 1
`

// aluBranchProgram is the program TestALUAndBranchBodies runs for op. Per
// operand pair both sources are loaded immediately before their first use,
// so the body's first attempt takes its stall arm on a pending load and a
// later one commits; an ALU op then runs once more with nothing pending. A
// branch skips an ori when taken, leaving the not-taken pairs as a mask in
// r20.
func aluBranchProgram(op isa.Op) string {
	info := isa.Lookup(op)
	var sb strings.Builder
	sb.WriteString("_start:\tla r16, data\n")
	for i := 0; i < 4; i++ {
		fmt.Fprintf(&sb, "\tlw r8, %d(r16)\n\tlw r9, %d(r16)\n", 8*i, 8*i+4)
		d := 10 + 2*i
		switch info.Format {
		case isa.FmtR:
			fmt.Fprintf(&sb, "\t%s r%d, r8, r9\n\t%s r%d, r9, r%d\n", info.Name, d, info.Name, d+1, d)
		case isa.FmtI:
			fmt.Fprintf(&sb, "\t%s r%d, r9, %d\n\t%s r%d, r8, 2\n", info.Name, d, i, info.Name, d+1)
		case isa.FmtU:
			fmt.Fprintf(&sb, "\t%s r%d, %d\n", info.Name, d, 1000*i+7)
		case isa.FmtB:
			fmt.Fprintf(&sb, "\t%s r8, r9, T%d\n\tori r20, r20, %d\nT%d:", info.Name, i, 1<<i, i)
		}
	}
	sb.WriteString("\thalt\n" + aluBranchOperands)
	return sb.String()
}

// TestALUAndBranchBodies runs every op compileALU or compileBranch has a
// body for — the set is read off the two functions, so a new body is in
// the table the moment it exists — under each issue policy, with and
// without a tracer, block engine against the legacy oracle: final state
// (registers, ledger, memory) and the recorded trace must be equal.
func TestALUAndBranchBodies(t *testing.T) {
	bodies := 0
	for op := isa.Op(0); op < isa.NumOps; op++ {
		in := isa.Inst{Op: op}
		branch := compileBranch(0, in, 0, 1) != nil
		if !branch && compileALU(0, in, 0) == nil {
			continue
		}
		bodies++
		src := aluBranchProgram(op)
		for _, sc := range bodyScenarios() {
			for _, traced := range []bool{false, true} {
				name := fmt.Sprintf("%s/%s/traced=%v", op, sc, traced)
				var states [2]string
				var traces [2][]TraceEntry
				for i, e := range Engines() {
					m, err := diffBoot(src, e, sc)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if traced {
						m.Trace = NewTraceBuffer(64)
					}
					if err := m.Run(); err != nil {
						t.Fatalf("%s on %s: %v", name, e, err)
					}
					states[i] = diffState(m, nil)
					if traced {
						traces[i] = m.Trace.Entries()
					}
					if e != EngineBlock {
						continue
					}
					tu := m.TUs[2]
					if gs := m.GenericStats(); gs.ByOp[op] != 0 {
						t.Errorf("%s: %d attempts took the generic path", name, gs.ByOp[op])
					}
					// lui has no source to wait on; every other body must
					// have stalled on its load at least once.
					if isa.Lookup(op).Format != isa.FmtU && tu.Stalls[obs.DepStall] == 0 {
						t.Errorf("%s: no dependence stall was charged; the wait arm did not run", name)
					}
					if mask := tu.reg(20); branch && (mask == 0 || mask == 15) {
						t.Errorf("%s: not-taken mask %#b, want the branch both taken and not", name, mask)
					}
					if traced && len(traces[i]) != int(tu.Insts) {
						t.Errorf("%s: %d trace entries for %d issues", name, len(traces[i]), tu.Insts)
					}
				}
				if states[0] != states[1] {
					t.Errorf("%s: final state differs\n--- %s ---\n%s--- %s ---\n%s",
						name, Engines()[0], states[0], Engines()[1], states[1])
				}
				if !slices.Equal(traces[0], traces[1]) {
					t.Errorf("%s: traces differ\n%v\n%v", name, traces[0], traces[1])
				}
			}
		}
	}
	if bodies != 27 {
		t.Errorf("%d ALU and branch bodies found, want 27", bodies)
	}
}
