package sim

import (
	"fmt"
	"testing"

	"cyclops/internal/arch"
	"cyclops/internal/asm"
	"cyclops/internal/core"
)

// smcSrc executes the instruction at patch: (so it lands in a compiled
// block), overwrites it with a store, jumps back, and records what the
// second pass computed. The block cache must notice the store into
// compiled text — a stale block would write 7 instead of 42.
const smcSrc = `
	la   r20, out
	la   r21, patch
	la   r22, tmpl
	li   r9, 0
patch:	addi r11, r0, 7		; executed twice; rewritten between passes
	bne  r9, r0, done
	li   r9, 1
	lw   r10, 0(r22)	; template word: "addi r11, r0, 42"
	sw   r10, 0(r21)	; store into text -> must flush the block cache
	j    patch
done:	sw   r11, 0(r20)
	halt
tmpl:	addi r11, r0, 42
out:	.space 4
`

func smcOut(t *testing.T) uint32 {
	t.Helper()
	p, err := asm.Assemble(smcSrc)
	if err != nil {
		t.Fatal(err)
	}
	return p.Symbols["out"]
}

// TestSelfModifyingCode checks the WatchCode invalidation property on
// both engines: the legacy interpreter (which re-reads memory each issue
// and so is correct trivially — the pinned reference) and the block
// engine (stale compiled blocks must flush and recompile).
func TestSelfModifyingCode(t *testing.T) {
	for _, e := range Engines() {
		t.Run(e.String(), func(t *testing.T) {
			m, err := tryRunEngine(smcSrc, e)
			if err != nil {
				t.Fatal(err)
			}
			switch e {
			case EngineLegacy:
				if m.blocks != nil || m.blockCompiles != 0 {
					t.Fatal("legacy engine compiled blocks")
				}
			case EngineBlock:
				if m.blocks == nil {
					t.Fatal("block cache was never populated (wrong engine path taken?)")
				}
				if m.blockFlushes == 0 {
					t.Fatal("store into compiled text did not flush the block cache")
				}
			}
			if got := word(t, m, smcOut(t)); got != 42 {
				t.Fatalf("%s: out = %d, want 42 (stale code executed)", e, got)
			}
		})
	}
}

// restartSrc: unit 2 runs patch: and halts; unit 3 then rewrites the
// instruction at patch: while unit 2 is off the active list; unit 2,
// started at patch: again, must run the new instruction (42), not the block
// its hint still names from before the store (7).
const restartSrc = `
patch:	addi r11, r0, 7
	la   r20, out
	sw   r11, 0(r20)
	halt
writer:	la   r21, patch
	la   r22, tmpl
	lw   r10, 0(r22)
	sw   r10, 0(r21)
	halt
tmpl:	addi r11, r0, 42
out:	.space 4
`

// TestRestartAfterFlushRunsNewCode: a flush clears the block hints of
// listed units only, so Start must drop the hint of the unit it lists.
func TestRestartAfterFlushRunsNewCode(t *testing.T) {
	p, err := asm.Assemble(restartSrc)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range Engines() {
		t.Run(e.String(), func(t *testing.T) {
			chip := core.MustNew(arch.Default())
			m := New(chip, nil)
			m.SetEngine(e)
			if err := chip.LoadImage(p.Origin, p.Bytes); err != nil {
				t.Fatal(err)
			}
			for i, run := range []struct {
				tid  int
				pc   string
				want uint32
			}{{2, "patch", 7}, {3, "writer", 7}, {2, "patch", 42}} {
				if err := m.Start(run.tid, p.Symbols[run.pc]); err != nil {
					t.Fatal(err)
				}
				if err := m.Run(); err != nil {
					t.Fatal(err)
				}
				if got := word(t, m, p.Symbols["out"]); got != run.want {
					t.Fatalf("run %d (unit %d at %s): out = %d, want %d", i, run.tid, run.pc, got, run.want)
				}
			}
		})
	}
}

// codeWatchSrc stores three times through r20+%d; the stored word is the
// one already there, so the program's behaviour never changes. `j loop`
// is the last text word and is first decoded when the first iteration
// falls through to it, so iterations two and three store with the watched
// range ending exactly at buf.
const codeWatchSrc = `
_start:	la   r20, buf
	lw   r9, %[1]d(r20)
	li   r8, 3
	j    loop
done:	halt
loop:	sw   r9, %[1]d(r20)
	addi r8, r8, -1
	beq  r8, r0, done
	j    loop
buf:	.space 4
`

// TestCodeWatchIsExact pins the watch granule at the decoded words
// themselves: data assembled directly after the text can be stored to
// without flushing a single block, while a store one word lower — into
// compiled text — still flushes.
func TestCodeWatchIsExact(t *testing.T) {
	for _, tc := range []struct {
		name    string
		off     int
		flushes uint64
	}{
		{"adjacent data", 0, 0},
		{"last text word", -4, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := run(t, fmt.Sprintf(codeWatchSrc, tc.off))
			if _, flushes := m.BlockStats(); flushes != tc.flushes {
				t.Errorf("store at buf%+d: %d block-cache flushes, want %d", tc.off, flushes, tc.flushes)
			}
		})
	}
}

// sdSMC are doubleword stores into compiled text. Each rewrites code the
// block engine has already compiled (patch: falls on a doubleword
// boundary), and a stale op would leave a 7 in out.
var sdSMC = []struct {
	name, src string
	want      []uint32 // the words at out
}{
	// The two instructions after the store sit in its own block, compiled
	// before the store issued.
	{"own block", `
_start:	la   r20, out
	la   r21, patch
	la   r22, tmpl
	ld   d32, 0(r22)
	sd   d32, 0(r21)
patch:	addi r11, r0, 7
	addi r12, r0, 7
	sw   r11, 0(r20)
	sw   r12, 4(r20)
	halt
	.align 8
tmpl:	addi r11, r0, 42
	addi r12, r0, 43
out:	.space 8
`, []uint32{42, 43}},
	// The patched pair is a block of its own, executed (so compiled) once
	// before the store and once after.
	{"next block", `
_start:	la   r20, out
	la   r21, patch
	la   r22, tmpl
	ld   d32, 0(r22)
	li   r9, 0
	nop			; patch: to a doubleword boundary
	j    patch
patch:	addi r11, r0, 7
	addi r12, r0, 7
	bne  r9, r0, done
	li   r9, 1
	sd   d32, 0(r21)
	j    patch
done:	sw   r11, 0(r20)
	sw   r12, 4(r20)
	halt
	.align 8
tmpl:	addi r11, r0, 42
	addi r12, r0, 43
out:	.space 8
`, []uint32{42, 43}},
	// The doubleword straddles the bottom of the watched range: its low
	// word is data no block decoded, its high word the first instruction.
	{"half inside the watch", `
pre:	.word 0
_start:
patch:	addi r11, r0, 7
	bne  r9, r0, done
	li   r9, 1
	la   r22, tmpl
	ld   d32, 0(r22)
	sd   d32, 0(r0)
	j    patch
done:	la   r20, out
	lw   r12, 0(r0)
	sw   r11, 0(r20)
	sw   r12, 4(r20)
	halt
	.align 8
tmpl:	.word 99
	addi r11, r0, 42
out:	.space 8
`, []uint32{42, 99}},
}

// TestSelfModifyingDoublewordStore: sd's body reports a possible write,
// and a doubleword that overlaps the watched range anywhere flushes the
// compiled blocks, on the engine that has any.
func TestSelfModifyingDoublewordStore(t *testing.T) {
	for _, tc := range sdSMC {
		p, err := asm.Assemble(tc.src)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for _, e := range Engines() {
			m, err := tryRunEngine(tc.src, e)
			if err != nil {
				t.Fatalf("%s on %s: %v", tc.name, e, err)
			}
			for i, want := range tc.want {
				if got := word(t, m, p.Symbols["out"]+uint32(4*i)); got != want {
					t.Errorf("%s on %s: out[%d] = %d, want %d (stale code executed)", tc.name, e, i, got, want)
				}
			}
			if _, flushes := m.BlockStats(); e == EngineBlock && flushes == 0 {
				t.Errorf("%s: the store into compiled text did not flush the block cache", tc.name)
			}
		}
	}
}
