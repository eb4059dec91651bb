package asm

import (
	"math"
	"strings"
	"testing"

	"cyclops/internal/isa"
)

func mustAssemble(t *testing.T, src string) *Program {
	t.Helper()
	p, err := Assemble(src)
	if err != nil {
		t.Fatalf("assemble failed:\n%v", err)
	}
	return p
}

func decodeAt(p *Program, addr uint32) isa.Inst { return isa.Decode(p.Word(addr)) }

func TestBasicInstructions(t *testing.T) {
	p := mustAssemble(t, `
		add  r3, r4, r5
		addi r6, r7, -12
		lw   r8, 16(r1)
		sw   r8, -4(sp)
		ld   d16, 8(r9)
		sd   d16, 0(r9)
		fma  d20, d22, d24, d26
		fsqrt d8, d10
		amoadd r3, (r4), r5
		mfspr r9, 4
		mtspr r9, 4
		sync
		halt
	`)
	want := []string{
		"add r3, r4, r5",
		"addi r6, r7, -12",
		"lw r8, 16(r1)",
		"sw r8, -4(r1)",
		"ld r16, 8(r9)",
		"sd r16, 0(r9)",
		"fma r20, r22, r24, r26",
		"fsqrt r8, r10",
		"amoadd r3, (r4), r5",
		"mfspr r9, 4",
		"mtspr r9, 4",
		"sync",
		"halt",
	}
	for i, w := range want {
		if got := decodeAt(p, uint32(4*i)).String(); got != w {
			t.Errorf("inst %d = %q, want %q", i, got, w)
		}
	}
}

func TestLabelsAndBranches(t *testing.T) {
	p := mustAssemble(t, `
_start:	addi r3, r0, 10
loop:	addi r3, r3, -1
	bne  r3, r0, loop
	b    done
	nop
done:	halt
	`)
	if p.Entry != 0 {
		t.Errorf("entry = %#x, want 0", p.Entry)
	}
	// bne at address 8 targets loop (4): offset = (4-12)/4 = -2.
	in := decodeAt(p, 8)
	if in.Op != isa.OpBNE || in.Imm != -2 {
		t.Errorf("bne = %+v, want offset -2", in)
	}
	// b at 12 targets done (20): offset = (20-16)/4 = 1, encoded as beq r0,r0.
	in = decodeAt(p, 12)
	if in.Op != isa.OpBEQ || in.A != 0 || in.B != 0 || in.Imm != 1 {
		t.Errorf("b = %+v, want beq r0,r0,+1", in)
	}
}

func TestForwardAndBackwardJumps(t *testing.T) {
	p := mustAssemble(t, `
	j fwd
	nop
fwd:	call back
	halt
back:	ret
	`)
	if in := decodeAt(p, 0); in.Op != isa.OpJAL || in.A != 0 || in.Imm != 1 {
		t.Errorf("j = %+v", in)
	}
	if in := decodeAt(p, 8); in.Op != isa.OpJAL || in.A != isa.RLR || in.Imm != 1 {
		t.Errorf("call = %+v", in)
	}
	if in := decodeAt(p, 16); in.Op != isa.OpJALR || in.B != isa.RLR {
		t.Errorf("ret = %+v", in)
	}
}

func TestLiSmallAndLarge(t *testing.T) {
	p := mustAssemble(t, `
	li r3, 42
	li r4, 0x12345678
	li r5, -1
	`)
	if in := decodeAt(p, 0); in.Op != isa.OpADDI || in.Imm != 42 {
		t.Errorf("small li = %+v", in)
	}
	// 0x12345678: lui gets the top 19 bits, ori the low 13.
	in1, in2 := decodeAt(p, 4), decodeAt(p, 8)
	if in1.Op != isa.OpLUI || in2.Op != isa.OpORI {
		t.Fatalf("large li = %v / %v", in1, in2)
	}
	v := uint32(in1.Imm)<<13 | uint32(in2.Imm)&0x1fff
	if v != 0x12345678 {
		t.Errorf("large li reconstructs to %#x", v)
	}
	// -1 fits signed 13 bits.
	if in := decodeAt(p, 12); in.Op != isa.OpADDI || in.Imm != -1 {
		t.Errorf("li -1 = %+v", in)
	}
}

func TestLiForwardReferenceUsesTwoWords(t *testing.T) {
	// A forward symbol cannot be sized in pass 1, so li expands to
	// lui+ori even when the final value is small.
	p := mustAssemble(t, `
	li r3, tiny
	halt
	.equ after, 1	; defined after use? .equ evaluates in pass 1 order
tiny:	halt
	`)
	in1, in2 := decodeAt(p, 0), decodeAt(p, 4)
	if in1.Op != isa.OpLUI || in2.Op != isa.OpORI {
		t.Fatalf("forward li = %v / %v", in1, in2)
	}
	v := uint32(in1.Imm)<<13 | uint32(in2.Imm)&0x1fff
	if v != p.Symbols["tiny"] {
		t.Errorf("forward li loads %#x, want %#x", v, p.Symbols["tiny"])
	}
}

func TestLaBuildsFullAddress(t *testing.T) {
	p := mustAssemble(t, `
	.org 0x2000
	la r8, data
	halt
data:	.word 99
	`)
	in1, in2 := decodeAt(p, 0x2000), decodeAt(p, 0x2004)
	v := uint32(in1.Imm)<<13 | uint32(in2.Imm)&0x1fff
	if v != p.Symbols["data"] {
		t.Errorf("la loads %#x, want %#x", v, p.Symbols["data"])
	}
	if p.Word(p.Symbols["data"]) != 99 {
		t.Errorf("data word = %d", p.Word(p.Symbols["data"]))
	}
}

func TestDirectives(t *testing.T) {
	p := mustAssemble(t, `
	.equ  SIZE, 4*8
	.org  0x100
	.word 1, 2, SIZE
	.half 0x1234, 0xffff
	.byte 1, 2, 3, 'A'
	.align 8
aligned:
	.double 1.5, -2.25
	.space 16
	.asciz "hi\n"
end:
	`)
	if p.Origin != 0x100 {
		t.Fatalf("origin = %#x", p.Origin)
	}
	if p.Word(0x100) != 1 || p.Word(0x104) != 2 || p.Word(0x108) != 32 {
		t.Errorf(".word block wrong: %d %d %d", p.Word(0x100), p.Word(0x104), p.Word(0x108))
	}
	off := uint32(0x10c) - p.Origin
	if p.Bytes[off] != 0x34 || p.Bytes[off+1] != 0x12 {
		t.Errorf(".half not little-endian")
	}
	if al := p.Symbols["aligned"]; al%8 != 0 {
		t.Errorf("aligned label at %#x, not 8-aligned", al)
	}
	al := p.Symbols["aligned"]
	bits := uint64(p.Word(al)) | uint64(p.Word(al+4))<<32
	if f := math.Float64frombits(bits); f != 1.5 {
		t.Errorf(".double wrote %v, want 1.5", f)
	}
	bits = uint64(p.Word(al+8)) | uint64(p.Word(al+12))<<32
	if f := math.Float64frombits(bits); f != -2.25 {
		t.Errorf(".double wrote %v, want -2.25", f)
	}
	strAddr := al + 16 + 16 - p.Origin
	if got := string(p.Bytes[strAddr : strAddr+3]); got != "hi\n" {
		t.Errorf(".asciz wrote %q", got)
	}
	if p.Bytes[strAddr+3] != 0 {
		t.Error(".asciz missing NUL")
	}
	if p.Symbols["end"] != al+16+16+4 {
		t.Errorf("end = %#x", p.Symbols["end"])
	}
}

// A comment starts at a ';' or '#' outside string literals only: inside
// one they, a ':' and an escaped quote are the string's own bytes.
func TestCommentCharactersInStrings(t *testing.T) {
	p := mustAssemble(t, `
msg:	.asciz "a;b#c:d\"e" ; the comment
raw:	.ascii "x;", "#y" # another
lbl:	nop ; "not a string: a comment ; still
	`)
	got := func(sym string, n uint32) string {
		off := p.Symbols[sym] - p.Origin
		return string(p.Bytes[off : off+n])
	}
	if s := got("msg", 10); s != "a;b#c:d\"e\x00" {
		t.Errorf(".asciz wrote %q", s)
	}
	if s := got("raw", 4); s != "x;#y" {
		t.Errorf(".ascii wrote %q", s)
	}
	if p.Symbols["raw"] != p.Symbols["msg"]+10 || p.Symbols["lbl"] != p.Symbols["raw"]+4 {
		t.Errorf("labels at %#x, %#x, %#x", p.Symbols["msg"], p.Symbols["raw"], p.Symbols["lbl"])
	}
	if w := p.Word(p.Symbols["lbl"]); isa.Decode(w).Op != isa.OpADDI {
		t.Errorf("nop after the strings encodes %#x", w)
	}
}

func TestExpressions(t *testing.T) {
	p := mustAssemble(t, `
	.equ A, 10
	.equ B, A*3 + (1 << 4) - 2	; 30+16-2 = 44
	.equ C, B / 4 % 8		; 11 % 8 = 3
	.equ D, ~0 & 0xff | 0x100	; 0x1ff
	.equ E, 'a' + 1
	.word A, B, C, D, E
	`)
	want := []uint32{10, 44, 3, 0x1ff, 'b'}
	for i, w := range want {
		if got := p.Word(uint32(4 * i)); got != w {
			t.Errorf("expr %d = %d, want %d", i, got, w)
		}
	}
}

func TestComparisonPseudos(t *testing.T) {
	p := mustAssemble(t, `
t:	bgt r3, r4, t
	ble r3, r4, t
	bgtu r3, r4, t
	bleu r3, r4, t
	`)
	wants := []struct {
		op   isa.Op
		a, b uint8
	}{
		{isa.OpBLT, 4, 3}, {isa.OpBGE, 4, 3}, {isa.OpBLTU, 4, 3}, {isa.OpBGEU, 4, 3},
	}
	for i, w := range wants {
		in := decodeAt(p, uint32(4*i))
		if in.Op != w.op || in.A != w.a || in.B != w.b {
			t.Errorf("pseudo %d = %+v, want %v r%d,r%d", i, in, w.op, w.a, w.b)
		}
	}
}

func TestRegisterAliases(t *testing.T) {
	p := mustAssemble(t, `add a0, sp, lr`)
	in := decodeAt(p, 0)
	if in.A != isa.RArg0 || in.B != isa.RSP || in.C != isa.RLR {
		t.Errorf("aliases = %+v", in)
	}
}

func TestErrors(t *testing.T) {
	cases := []struct {
		name, src, wantSub string
	}{
		{"unknown mnemonic", "frob r1, r2", "unknown mnemonic"},
		{"bad register", "add r1, r2, r99", "out of range"},
		{"odd double reg", "fadd d3, d4, d6", "even pair"},
		{"imm too big", "addi r1, r2, 99999", "13 bits"},
		{"undefined symbol", "b nowhere", "undefined symbol"},
		{"redefined label", "x:\nx:", "redefined"},
		{"org backwards", ".org 8\nnop\nnop\nnop\n.org 4", "backwards"},
		{"bad align", ".align 3", "power of two"},
		{"bad directive", ".bogus 1", "unknown directive"},
		{"wrong operand count", "add r1, r2", "3 operands"},
		{"unaligned branch", "beq r0, r0, 6", "aligned"},
		{"equ forward ref", ".equ X, Y\n.equ Y, 1", "undefined"},
		{"bad mem operand", "lw r1, r2", "imm(reg)"},
		{"negative space", ".space -4", "negative"},
		{"label is no directive", ".label", "unknown directive"},
		{"unterminated string", `.ascii "a;b`, "double-quoted"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Assemble(c.src)
			if err == nil {
				t.Fatal("assembly succeeded, want error")
			}
			if !strings.Contains(err.Error(), c.wantSub) {
				t.Errorf("error %q does not mention %q", err, c.wantSub)
			}
		})
	}
}

func TestMultipleErrorsReported(t *testing.T) {
	_, err := Assemble("frob r1\nfrob r2\nfrob r3")
	if err == nil {
		t.Fatal("want errors")
	}
	if n := len(err.(ErrorList)); n != 3 {
		t.Errorf("reported %d errors, want 3", n)
	}
}

func TestEntryDefaultsToOrigin(t *testing.T) {
	p := mustAssemble(t, ".org 0x40\nnop")
	if p.Entry != 0x40 {
		t.Errorf("entry = %#x, want 0x40", p.Entry)
	}
	p = mustAssemble(t, "nop\n_start: nop")
	if p.Entry != 4 {
		t.Errorf("entry = %#x, want 4", p.Entry)
	}
}

func TestCommentStyles(t *testing.T) {
	p := mustAssemble(t, `
	nop	; semicolon comment
	nop	# hash comment
	`)
	if len(p.Bytes) != 8 {
		t.Errorf("image = %d bytes, want 8", len(p.Bytes))
	}
}

func TestDisassembleRoundTrip(t *testing.T) {
	src := `
	add r3, r4, r5
	lw r8, 16(r1)
	halt
	`
	p := mustAssemble(t, src)
	dis := Disassemble(p)
	for _, want := range []string{"add r3, r4, r5", "lw r8, 16(r1)", "halt"} {
		if !strings.Contains(dis, want) {
			t.Errorf("disassembly missing %q:\n%s", want, dis)
		}
	}
}

func TestLabelOnSameLineAsInstruction(t *testing.T) {
	p := mustAssemble(t, "start: nop\nb start")
	if p.Symbols["start"] != 0 {
		t.Errorf("start = %#x", p.Symbols["start"])
	}
	if in := decodeAt(p, 4); in.Imm != -2 {
		t.Errorf("branch offset = %d, want -2", in.Imm)
	}
}
