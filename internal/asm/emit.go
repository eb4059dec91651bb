package asm

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"cyclops/internal/isa"
)

// emit is the second pass: with the symbol table complete it encodes every
// statement into the image.
func (a *assembler) emit() {
	for i := range a.stmts {
		st := &a.stmts[i]
		switch st.kind {
		case stDirective:
			a.emitDirective(st)
		case stInst:
			a.emitInst(st)
		}
	}
}

func (a *assembler) put8(addr uint32, v byte) {
	a.image[addr-a.origin] = v
}

func (a *assembler) put16(addr uint32, v uint16) {
	a.put8(addr, byte(v))
	a.put8(addr+1, byte(v>>8))
}

func (a *assembler) put32(addr uint32, v uint32) {
	a.put16(addr, uint16(v))
	a.put16(addr+2, uint16(v>>16))
}

func (a *assembler) put64(addr uint32, v uint64) {
	a.put32(addr, uint32(v))
	a.put32(addr+4, uint32(v>>32))
}

func (a *assembler) emitDirective(st *statement) {
	eval := func(s string) (int64, bool) {
		v, err := evalExpr(s, a.symbols)
		if err != nil {
			a.errorf(st.line, "%s: %v", st.name, err)
			return 0, false
		}
		return v, true
	}
	switch st.name {
	case ".byte":
		for i, arg := range st.fields {
			if v, ok := eval(arg); ok {
				a.put8(st.addr+uint32(i), byte(v))
			}
		}
	case ".half":
		for i, arg := range st.fields {
			if v, ok := eval(arg); ok {
				a.put16(st.addr+uint32(2*i), uint16(v))
			}
		}
	case ".word":
		for i, arg := range st.fields {
			if v, ok := eval(arg); ok {
				a.put32(st.addr+uint32(4*i), uint32(v))
			}
		}
	case ".double":
		for i, arg := range st.fields {
			f, err := strconv.ParseFloat(arg, 64)
			if err != nil {
				// Allow integer expressions too: .double N*8 is a
				// common way to place constants from .equ values.
				if v, ok := eval(arg); ok {
					f = float64(v)
				} else {
					continue
				}
			}
			a.put64(st.addr+uint32(8*i), math.Float64bits(f))
		}
	case ".ascii", ".asciz":
		addr := st.addr
		for _, arg := range st.fields {
			b, err := unescapeString(arg)
			if err != nil {
				a.errorf(st.line, "%s: %v", st.name, err)
				return
			}
			for _, c := range b {
				a.put8(addr, c)
				addr++
			}
			if st.name == ".asciz" {
				a.put8(addr, 0)
				addr++
			}
		}
	}
	// .equ/.org/.align/.space emit nothing.
}

// emitInst encodes one (possibly pseudo) instruction.
func (a *assembler) emitInst(st *statement) {
	fail := func(format string, args ...interface{}) {
		a.errorf(st.line, format, args...)
	}
	enc := func(off uint32, in isa.Inst) {
		w, err := in.Encode()
		if err != nil {
			fail("%v", err)
			return
		}
		a.put32(st.addr+off, w)
	}
	ops := st.fields
	need := func(n int) bool {
		if len(ops) != n {
			fail("%s needs %d operands, got %d", st.name, n, len(ops))
			return false
		}
		return true
	}
	reg := func(s string) uint8 {
		r, err := parseReg(s)
		if err != nil {
			fail("%v", err)
		}
		return r
	}
	eval := func(s string) int64 {
		v, err := evalExpr(s, a.symbols)
		if err != nil {
			fail("%v", err)
		}
		return v
	}
	// branchOff converts an absolute target expression into a
	// word-relative offset from the instruction after this one.
	branchOff := func(s string, width int32) int32 {
		target := uint32(eval(s))
		diff := int64(target) - int64(st.addr) - 4
		if diff%4 != 0 {
			fail("branch target %#x is not word aligned", target)
			return 0
		}
		off := diff / 4
		limit := int64(1)<<(width-1) - 1
		if off < -limit-1 || off > limit {
			fail("branch target %#x out of range (offset %d words)", target, off)
			return 0
		}
		return int32(off)
	}
	// memOperand parses "imm(reg)" with an optional immediate part.
	memOperand := func(s string) (imm int32, base uint8) {
		open := strings.LastIndexByte(s, '(')
		if open < 0 || !strings.HasSuffix(s, ")") {
			fail("bad memory operand %q, want imm(reg)", s)
			return 0, 0
		}
		base = reg(s[open+1 : len(s)-1])
		immStr := strings.TrimSpace(s[:open])
		if immStr != "" {
			imm = int32(eval(immStr))
		}
		return imm, base
	}

	// Pseudo-instructions first.
	switch st.name {
	case "nop":
		if need(0) {
			enc(0, isa.Inst{Op: isa.OpADDI})
		}
		return
	case "mov":
		if need(2) {
			enc(0, isa.Inst{Op: isa.OpADDI, A: reg(ops[0]), B: reg(ops[1])})
		}
		return
	case "not":
		if need(2) {
			r := reg(ops[1])
			enc(0, isa.Inst{Op: isa.OpNOR, A: reg(ops[0]), B: r, C: r})
		}
		return
	case "neg":
		if need(2) {
			enc(0, isa.Inst{Op: isa.OpSUB, A: reg(ops[0]), B: isa.RZero, C: reg(ops[1])})
		}
		return
	case "li", "la":
		if !need(2) {
			return
		}
		rd := reg(ops[0])
		v := uint32(eval(ops[1]))
		if st.size == 4 {
			enc(0, isa.Inst{Op: isa.OpADDI, A: rd, Imm: int32(v)})
			return
		}
		enc(0, isa.Inst{Op: isa.OpLUI, A: rd, Imm: int32(v >> 13)})
		enc(4, isa.Inst{Op: isa.OpORI, A: rd, B: rd, Imm: int32(v & 0x1fff)})
		return
	case "b":
		if need(1) {
			enc(0, isa.Inst{Op: isa.OpBEQ, Imm: branchOff(ops[0], 13)})
		}
		return
	case "j":
		if need(1) {
			enc(0, isa.Inst{Op: isa.OpJAL, A: isa.RZero, Imm: branchOff(ops[0], 19)})
		}
		return
	case "call":
		if need(1) {
			enc(0, isa.Inst{Op: isa.OpJAL, A: isa.RLR, Imm: branchOff(ops[0], 19)})
		}
		return
	case "ret":
		if need(0) {
			enc(0, isa.Inst{Op: isa.OpJALR, A: isa.RZero, B: isa.RLR})
		}
		return
	case "bgt", "ble", "bgtu", "bleu":
		if !need(3) {
			return
		}
		swapped := map[string]isa.Op{
			"bgt": isa.OpBLT, "ble": isa.OpBGE,
			"bgtu": isa.OpBLTU, "bleu": isa.OpBGEU,
		}[st.name]
		enc(0, isa.Inst{Op: swapped, A: reg(ops[1]), B: reg(ops[0]), Imm: branchOff(ops[2], 13)})
		return
	}

	op, ok := isa.ByName(st.name)
	if !ok {
		fail("unknown mnemonic %q", st.name)
		return
	}
	info := isa.Lookup(op)
	in := isa.Inst{Op: op}
	switch info.Format {
	case isa.FmtR:
		switch {
		case info.Mem: // atomics: rd, (ra), rb
			if !need(3) {
				return
			}
			in.A = reg(ops[0])
			inner := strings.TrimSuffix(strings.TrimPrefix(ops[1], "("), ")")
			if inner == ops[1] {
				fail("%s address operand must be parenthesised: (reg)", st.name)
				return
			}
			in.B = reg(inner)
			in.C = reg(ops[2])
		case op == isa.OpFNEG || op == isa.OpFABS || op == isa.OpFMOV ||
			op == isa.OpFSQRT || op == isa.OpFCVTDW || op == isa.OpFCVTWD:
			if !need(2) {
				return
			}
			in.A, in.B = reg(ops[0]), reg(ops[1])
		default:
			if !need(3) {
				return
			}
			in.A, in.B, in.C = reg(ops[0]), reg(ops[1]), reg(ops[2])
		}
	case isa.FmtR4:
		if !need(4) {
			return
		}
		in.A, in.B, in.C, in.D = reg(ops[0]), reg(ops[1]), reg(ops[2]), reg(ops[3])
	case isa.FmtI:
		switch {
		case info.Mem, op == isa.OpJALR: // rd, imm(ra)
			if !need(2) {
				return
			}
			in.A = reg(ops[0])
			in.Imm, in.B = memOperand(ops[1])
		case op == isa.OpMFSPR, op == isa.OpMTSPR:
			if !need(2) {
				return
			}
			in.A = reg(ops[0])
			in.Imm = int32(eval(ops[1]))
		default:
			if !need(3) {
				return
			}
			in.A, in.B = reg(ops[0]), reg(ops[1])
			in.Imm = int32(eval(ops[2]))
		}
	case isa.FmtS:
		if !need(2) {
			return
		}
		in.A = reg(ops[0])
		in.Imm, in.B = memOperand(ops[1])
	case isa.FmtB:
		if !need(3) {
			return
		}
		in.A, in.B = reg(ops[0]), reg(ops[1])
		in.Imm = branchOff(ops[2], 13)
	case isa.FmtU:
		if !need(2) {
			return
		}
		in.A = reg(ops[0])
		in.Imm = int32(eval(ops[1]))
	case isa.FmtJ:
		if !need(2) {
			return
		}
		in.A = reg(ops[0])
		in.Imm = branchOff(ops[1], 19)
	case isa.FmtN:
		if !need(0) {
			return
		}
	}
	if len(a.errs) > 0 && a.errs[len(a.errs)-1].Line == int(st.line) {
		return // operand errors already reported
	}
	enc(0, in)
}

// Disassemble renders the image as one instruction per line, for the
// cyclops-asm -d tool and for debugging.
func Disassemble(p *Program) string {
	var sb strings.Builder
	for off := uint32(0); off+4 <= uint32(len(p.Bytes)); off += 4 {
		addr := p.Origin + off
		w := p.Word(addr)
		fmt.Fprintf(&sb, "%06x: %08x  %s\n", addr, w, isa.Decode(w))
	}
	return sb.String()
}
