// Package asm implements a two-pass assembler for the Cyclops ISA.
//
// The source language is a conventional RISC assembly dialect:
//
//	; STREAM copy inner loop
//	        .equ  N, 2048
//	        .org  0x100
//	_start: la    r8, src          ; pseudo: lui+ori
//	        li    r9, N
//	loop:   ld    d16, 0(r8)
//	        sd    d16, 0x2000(r8)
//	        addi  r8, r8, 8
//	        addi  r9, r9, -1
//	        bne   r9, r0, loop
//	        halt
//	src:    .space N*8
//
// Registers are r0..r63 (aliases: zero, sp, lr, a0..a3). Double-precision
// operands use dN, an alias for the even register N of an (N, N+1) pair.
// Branch and jump targets are expressions evaluating to absolute byte
// addresses; the assembler converts them to word-relative offsets.
//
// Directives: .org .align .space .byte .half .word .double .ascii .asciz
// .equ. Pseudo-instructions: nop, mov, li, la, not, neg, b, j, call, ret,
// bgt, ble, bgtu, bleu.
package asm

import (
	"fmt"
	"sort"
	"strings"
)

// Program is an assembled memory image.
type Program struct {
	// Origin is the load address of Bytes[0].
	Origin uint32
	// Bytes is the image, little-endian words.
	Bytes []byte
	// Entry is the initial program counter: the _start symbol when
	// defined, the origin otherwise.
	Entry uint32
	// Symbols maps every defined label and .equ name to its value.
	Symbols map[string]uint32
	// File names the source for diagnostics and symbolized reports; the
	// assembler leaves it empty and callers that know the path set it.
	File string
	// Lines is the address-sorted line table (see Locate); Labels the
	// address-sorted code labels (see NearestLabel). Together they turn a
	// program counter back into "label+0xoff (file:line)".
	Lines  []Line
	Labels []Label
}

// Word returns the 32-bit word at byte address addr, which must be inside
// the image and aligned.
func (p *Program) Word(addr uint32) uint32 {
	off := addr - p.Origin
	b := p.Bytes[off : off+4]
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

// Error is an assembly diagnostic tied to a source line. File is the
// source name when the caller assembled through AssembleNamed, so tools
// report clickable file:line positions instead of bare line numbers.
type Error struct {
	File string
	Line int
	Msg  string
}

func (e Error) Error() string {
	if e.File != "" {
		return fmt.Sprintf("%s:%d: %s", e.File, e.Line, e.Msg)
	}
	return fmt.Sprintf("line %d: %s", e.Line, e.Msg)
}

// ErrorList collects every diagnostic of a failed assembly.
type ErrorList []Error

func (l ErrorList) Error() string {
	if len(l) == 0 {
		return "no errors"
	}
	msgs := make([]string, len(l))
	for i, e := range l {
		msgs[i] = e.Error()
	}
	return strings.Join(msgs, "\n")
}

// Assemble translates source text into a Program.
func Assemble(src string) (*Program, error) { return AssembleNamed("", src) }

// AssembleNamed is Assemble with a source name: the name lands in the
// Program's File field and in every diagnostic, so errors print as
// file:line instead of a bare line number.
func AssembleNamed(file, src string) (*Program, error) {
	a := &assembler{}
	a.parse(src)
	if len(a.errs) == 0 {
		a.layout()
	}
	if len(a.errs) == 0 {
		a.emit()
	}
	if len(a.errs) > 0 {
		for i := range a.errs {
			a.errs[i].File = file
		}
		sort.Slice(a.errs, func(i, j int) bool { return a.errs[i].Line < a.errs[j].Line })
		return nil, a.errs
	}
	entry := a.origin
	if e, ok := a.symbols["_start"]; ok {
		entry = e
	}
	p := &Program{Origin: a.origin, Bytes: a.image, Entry: entry, Symbols: a.symbols, File: file}
	a.buildLineTable(p)
	return p, nil
}

// stKind discriminates parsed statements.
type stKind uint8

const (
	stInst stKind = iota
	stDirective
	stLabel
)

// statement is one parsed source statement: an instruction (name is the
// lower-cased mnemonic, fields its operands), a directive (name keeps its
// dot, fields are its arguments) or a label definition (name is the
// label, no fields).
type statement struct {
	line   int32
	kind   stKind
	name   string
	fields []string

	// Layout results.
	addr uint32
	size uint32
}

type assembler struct {
	stmts   []statement
	symbols map[string]uint32
	equs    map[string]bool // names defined by .equ (not addresses)
	errs    ErrorList

	origin    uint32
	originSet bool
	image     []byte
}

func (a *assembler) errorf(line int32, format string, args ...interface{}) {
	a.errs = append(a.errs, Error{Line: int(line), Msg: fmt.Sprintf(format, args...)})
}

// parse splits the source into statements and records label positions
// symbolically (their values are assigned during layout). Every line
// yields at most one instruction or directive, and every label needs a
// colon, so the statement table is sized once from the source; so is one
// array holding every statement's fields, since a line has at most one
// more field than commas. The symbol table is sized for the labels and
// .equ names found.
func (a *assembler) parse(src string) {
	lines := strings.Count(src, "\n") + 1
	a.stmts = make([]statement, 0, lines+strings.Count(src, ":"))
	fields := make([]string, 0, lines+strings.Count(src, ","))
	names, equs := 0, 0
	for line, rest, more := int32(1), src, true; more; line++ {
		var raw string
		raw, rest, more = strings.Cut(rest, "\n")
		text := strings.TrimSpace(stripComment(raw))
		// Peel off any leading labels. A label is an identifier, which
		// holds no quote or blank, so a colon inside a string literal
		// never ends one.
		for {
			name, after, found := strings.Cut(text, ":")
			name = strings.TrimSpace(name)
			if !found || !isIdent(name) {
				break
			}
			a.stmts = append(a.stmts, statement{line: line, kind: stLabel, name: name})
			names++
			text = strings.TrimSpace(after)
		}
		if text == "" {
			continue
		}
		head, operands, _ := strings.Cut(text, " ")
		st := statement{line: line, kind: stInst, name: strings.ToLower(head)}
		if strings.HasPrefix(st.name, ".") {
			st.kind = stDirective
			if st.name == ".equ" {
				equs++
			}
		}
		n := len(fields)
		fields = splitOperands(fields, strings.TrimSpace(operands))
		st.fields = fields[n:len(fields):len(fields)]
		a.stmts = append(a.stmts, st)
	}
	a.symbols = make(map[string]uint32, names+equs)
	a.equs = make(map[string]bool, equs)
}

// stripComment cuts a line at the first ';' or '#' outside a string
// literal, so ".asciz \"a;b\"" keeps its string whole.
func stripComment(s string) string {
	inStr := false
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case inStr:
			if c == '\\' {
				i++
			} else if c == '"' {
				inStr = false
			}
		case c == '"':
			inStr = true
		case c == ';' || c == '#':
			return s[:i]
		}
	}
	return s
}

// splitOperands appends to out the fields of s, split on commas that are
// outside parentheses and quotes.
func splitOperands(out []string, s string) []string {
	if s == "" {
		return out
	}
	depth := 0
	inStr := false
	start := 0
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case inStr:
			if c == '\\' {
				i++
			} else if c == '"' {
				inStr = false
			}
		case c == '"':
			inStr = true
		case c == '(':
			depth++
		case c == ')':
			depth--
		case c == ',' && depth == 0:
			out = append(out, strings.TrimSpace(s[start:i]))
			start = i + 1
		}
	}
	return append(out, strings.TrimSpace(s[start:]))
}

func isIdent(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c == '_' || c == '.':
		case c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}
