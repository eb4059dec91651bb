package asm

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cyclops/internal/isa"
)

// FuzzAsmRoundTrip checks the assemble -> encode -> decode -> render ->
// reassemble loop: any source the assembler accepts must render back to
// text that reassembles into the byte-identical image, and the rendered
// text must be a fix point (rendering the reassembled program changes
// nothing). The 16 MB image cap in layout keeps pathological .space
// inputs from exhausting memory.
func FuzzAsmRoundTrip(f *testing.F) {
	seeds, err := filepath.Glob(filepath.Join("testdata", "fuzz", "seeds", "*.s"))
	if err != nil || len(seeds) == 0 {
		f.Fatalf("no seed corpus: %v", err)
	}
	for _, path := range seeds {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(data))
	}
	f.Add("\tadd r1, r2, r3\n\thalt\n")
	f.Add("x:\tbne r9, r0, x\n\t.word 0xffffffff\n")
	f.Add("\t.org 0x80\n\t.ascii \"hi\"\n")
	f.Add("msg:\t.asciz \"a;b#c:d\\\"e\" ; comment\n\t.ascii \"x;\", \"#y\"\n")
	f.Fuzz(func(t *testing.T, src string) {
		p1, err := Assemble(src)
		if err != nil {
			return // rejecting bad source is not a round-trip failure
		}
		text := renderAsm(p1)
		p2, err := Assemble(text)
		if err != nil {
			t.Fatalf("rendered source does not reassemble: %v\n%s", err, text)
		}
		if p2.Origin != p1.Origin {
			t.Fatalf("origin changed: %#x -> %#x", p1.Origin, p2.Origin)
		}
		if !bytes.Equal(p2.Bytes, p1.Bytes) {
			t.Fatalf("image changed after round trip\nsource:\n%s\nrendered:\n%s", src, text)
		}
		if text2 := renderAsm(p2); text2 != text {
			t.Fatalf("render is not a fix point:\n--- first ---\n%s--- second ---\n%s", text, text2)
		}
	})
}

// renderAsm converts an assembled image back into source the assembler
// accepts. Words whose textual form would lose bits — unknown opcodes,
// junk in unused fields, or operands the disassembly syntax drops — fall
// back to .word; a non-word-sized tail becomes .byte.
func renderAsm(p *Program) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "\t.org %#x\n", p.Origin)
	n := uint32(len(p.Bytes))
	for off := uint32(0); off+4 <= n; off += 4 {
		addr := p.Origin + off
		w := p.Word(addr)
		in := isa.Decode(w)
		if enc, err := in.Encode(); err != nil || enc != w || !renderable(in) {
			fmt.Fprintf(&sb, "\t.word %#x\n", w)
			continue
		}
		info := isa.Lookup(in.Op)
		switch info.Format {
		case isa.FmtB, isa.FmtJ:
			// The assembler takes absolute byte addresses and re-derives
			// the word-relative offset; targets outside the 32-bit space
			// cannot be written down, so keep those words literal.
			target := int64(addr) + 4 + 4*int64(in.Imm)
			if target < 0 || target > math.MaxUint32 {
				fmt.Fprintf(&sb, "\t.word %#x\n", w)
			} else if info.Format == isa.FmtB {
				fmt.Fprintf(&sb, "\t%s r%d, r%d, %d\n", info.Name, in.A, in.B, target)
			} else {
				fmt.Fprintf(&sb, "\t%s r%d, %d\n", info.Name, in.A, target)
			}
		default:
			fmt.Fprintf(&sb, "\t%s\n", in)
		}
	}
	for off := n &^ 3; off < n; off++ {
		fmt.Fprintf(&sb, "\t.byte %d\n", p.Bytes[off])
	}
	return sb.String()
}

// renderable reports whether in.String() preserves every operand field:
// the two-operand FP forms drop C, and the SPR moves drop B.
func renderable(in isa.Inst) bool {
	switch in.Op {
	case isa.OpFNEG, isa.OpFABS, isa.OpFMOV, isa.OpFSQRT, isa.OpFCVTDW, isa.OpFCVTWD:
		return in.C == 0
	case isa.OpMFSPR, isa.OpMTSPR:
		return in.B == 0
	}
	return true
}
