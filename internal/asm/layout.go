package asm

import (
	"errors"
	"fmt"
	"strings"
)

// layout is the first pass: it assigns an address and size to every
// statement and builds the symbol table. Directive arguments that shape
// the layout (.org, .align, .space, .equ) must be computable during this
// pass; instruction operands may reference forward labels.
func (a *assembler) layout() {
	lc := uint32(0)
	emitted := false
	maxLC := uint32(0)
	for i := range a.stmts {
		st := &a.stmts[i]
		st.addr = lc
		switch st.kind {
		case stLabel:
			if _, dup := a.symbols[st.name]; dup {
				a.errorf(st.line, "symbol %q redefined", st.name)
				continue
			}
			a.symbols[st.name] = lc
		case stDirective:
			size, newLC, ok := a.layoutDirective(st, lc, emitted)
			if !ok {
				continue
			}
			st.size = size
			lc = newLC
			if size > 0 {
				emitted = true
			}
		case stInst:
			st.size = a.instSize(st)
			lc += st.size
			emitted = true
		}
		if lc > maxLC {
			maxLC = lc
		}
		if lc < a.origin || maxLC-a.origin > 16<<20 {
			a.errorf(st.line, "image exceeds the 16 MB physical address space")
			return
		}
	}
	if len(a.errs) == 0 {
		a.image = make([]byte, maxLC-a.origin)
	}
}

// layoutDirective processes one directive during layout, returning its
// size and the new location counter.
func (a *assembler) layoutDirective(st *statement, lc uint32, emitted bool) (size, newLC uint32, ok bool) {
	fail := func(format string, args ...interface{}) (uint32, uint32, bool) {
		a.errorf(st.line, format, args...)
		return 0, lc, false
	}
	switch st.name {
	case ".equ":
		if len(st.fields) != 2 {
			return fail(".equ needs a name and a value")
		}
		name := st.fields[0]
		if !isIdent(name) {
			return fail("bad .equ name %q", name)
		}
		if _, dup := a.symbols[name]; dup {
			return fail("symbol %q redefined", name)
		}
		v, err := evalExpr(st.fields[1], a.symbols)
		if err != nil {
			return fail(".equ %s: %v", name, err)
		}
		a.symbols[name] = uint32(v)
		a.equs[name] = true
		return 0, lc, true

	case ".org":
		if len(st.fields) != 1 {
			return fail(".org needs one address")
		}
		v, err := evalExpr(st.fields[0], a.symbols)
		if err != nil {
			return fail(".org: %v", err)
		}
		addr := uint32(v)
		if !emitted && !a.originSet {
			a.origin = addr
			a.originSet = true
			st.addr = addr
			return 0, addr, true
		}
		if addr < lc {
			return fail(".org %#x moves backwards from %#x", addr, lc)
		}
		st.addr = addr
		return 0, addr, true

	case ".align":
		if len(st.fields) != 1 {
			return fail(".align needs one value")
		}
		v, err := evalExpr(st.fields[0], a.symbols)
		if err != nil {
			return fail(".align: %v", err)
		}
		n := uint32(v)
		if n == 0 || n&(n-1) != 0 {
			return fail(".align %d is not a power of two", v)
		}
		aligned := (lc + n - 1) &^ (n - 1)
		return aligned - lc, aligned, true

	case ".space":
		if len(st.fields) != 1 {
			return fail(".space needs one size")
		}
		v, err := evalExpr(st.fields[0], a.symbols)
		if err != nil {
			return fail(".space: %v", err)
		}
		if v < 0 {
			return fail(".space %d is negative", v)
		}
		return uint32(v), lc + uint32(v), true

	case ".byte":
		return uint32(len(st.fields)), lc + uint32(len(st.fields)), true
	case ".half":
		return uint32(2 * len(st.fields)), lc + uint32(2*len(st.fields)), true
	case ".word":
		return uint32(4 * len(st.fields)), lc + uint32(4*len(st.fields)), true
	case ".double":
		return uint32(8 * len(st.fields)), lc + uint32(8*len(st.fields)), true

	case ".ascii", ".asciz":
		var total uint32
		for _, arg := range st.fields {
			b, err := unescapeString(arg)
			if err != nil {
				return fail("%s: %v", st.name, err)
			}
			total += uint32(len(b))
			if st.name == ".asciz" {
				total++
			}
		}
		return total, lc + total, true

	default:
		return fail("unknown directive %s", st.name)
	}
}

// instSize returns the byte size of an instruction, expanding pseudos.
// li is 4 bytes when its value is already known and fits a signed 13-bit
// immediate, 8 bytes (lui+ori) otherwise; la is always 8 bytes.
func (a *assembler) instSize(st *statement) uint32 {
	switch st.name {
	case "la":
		return 8
	case "li":
		if len(st.fields) == 2 {
			v, err := evalExpr(st.fields[1], a.symbols)
			if err == nil && v >= -4096 && v <= 4095 {
				return 4
			}
			if err != nil && !errors.Is(err, errUndefined) {
				a.errorf(st.line, "li: %v", err)
			}
		}
		return 8
	default:
		return 4
	}
}

// parseReg resolves a register operand. Double-precision names dN must be
// even and alias the (N, N+1) pair.
func parseReg(s string) (uint8, error) {
	switch strings.ToLower(s) {
	case "zero":
		return 0, nil
	case "sp":
		return 1, nil
	case "lr":
		return 2, nil
	case "a0":
		return 4, nil
	case "a1":
		return 5, nil
	case "a2":
		return 6, nil
	case "a3":
		return 7, nil
	}
	if len(s) < 2 || (s[0] != 'r' && s[0] != 'd' && s[0] != 'R' && s[0] != 'D') {
		return 0, fmt.Errorf("bad register %q", s)
	}
	n := 0
	for _, c := range s[1:] {
		if c < '0' || c > '9' {
			return 0, fmt.Errorf("bad register %q", s)
		}
		n = n*10 + int(c-'0')
		if n > 63 {
			return 0, fmt.Errorf("register %q out of range", s)
		}
	}
	if s[0] == 'd' || s[0] == 'D' {
		if n%2 != 0 {
			return 0, fmt.Errorf("double register %q must name an even pair", s)
		}
	}
	return uint8(n), nil
}
