package sim

import (
	"testing"

	"cyclops/internal/asm"
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
