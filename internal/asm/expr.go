package asm

import (
	"fmt"
	"strconv"
	"strings"
)

// Expression evaluation: integer expressions over symbols with C-like
// operators and precedence. Used by directives, immediates and targets.
//
//	unary:  - ~ +
//	binary: * / % << >> & ^ | + -
//
// Numbers may be decimal, 0x hex, 0b binary, 0o octal, or character
// literals ('a', '\n').

type exprParser struct {
	toks []string
	pos  int
	sym  map[string]uint32
}

var errUndefined = fmt.Errorf("undefined symbol")

// evalExpr evaluates s against the symbol table. A reference to an
// undefined symbol returns an error wrapping errUndefined so layout can
// distinguish forward references from syntax errors.
func evalExpr(s string, sym map[string]uint32) (int64, error) {
	var buf [8]string // most operands tokenize without a heap allocation
	toks, err := tokenizeExpr(buf[:0], s)
	if err != nil {
		return 0, err
	}
	if len(toks) == 0 {
		return 0, fmt.Errorf("empty expression")
	}
	p := &exprParser{toks: toks, sym: sym}
	v, err := p.parseBinary(0)
	if err != nil {
		return 0, err
	}
	if p.pos != len(p.toks) {
		return 0, fmt.Errorf("unexpected %q in expression %q", p.toks[p.pos], s)
	}
	return v, nil
}

// tokenizeExpr appends the tokens of s to toks.
func tokenizeExpr(toks []string, s string) ([]string, error) {
	for i := 0; i < len(s); {
		c := s[i]
		switch {
		case c == ' ' || c == '\t':
			i++
		case c == '\'': // character literal
			j := i + 1
			if j < len(s) && s[j] == '\\' {
				j++
			}
			j++ // the character itself
			if j >= len(s) || s[j] != '\'' {
				return nil, fmt.Errorf("unterminated character literal in %q", s)
			}
			toks = append(toks, s[i:j+1])
			i = j + 1
		case c >= '0' && c <= '9':
			j := i
			for j < len(s) && (isAlnum(s[j]) || s[j] == 'x' || s[j] == 'X') {
				j++
			}
			toks = append(toks, s[i:j])
			i = j
		case isIdentStart(c):
			j := i
			for j < len(s) && (isAlnum(s[j]) || s[j] == '_' || s[j] == '.') {
				j++
			}
			toks = append(toks, s[i:j])
			i = j
		case c == '<' || c == '>':
			if i+1 >= len(s) || s[i+1] != c {
				return nil, fmt.Errorf("bad operator %q in %q", string(c), s)
			}
			toks = append(toks, s[i:i+2])
			i += 2
		case strings.ContainsRune("+-*/%&^|()~", rune(c)):
			toks = append(toks, s[i:i+1])
			i++
		default:
			return nil, fmt.Errorf("bad character %q in expression %q", string(c), s)
		}
	}
	return toks, nil
}

func isAlnum(c byte) bool {
	return c >= '0' && c <= '9' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
}

func isIdentStart(c byte) bool {
	return c == '_' || c == '.' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
}

// binaryPrec returns the precedence of a binary operator, 0 for non-ops.
func binaryPrec(op string) int {
	switch op {
	case "*", "/", "%":
		return 6
	case "+", "-":
		return 5
	case "<<", ">>":
		return 4
	case "&":
		return 3
	case "^":
		return 2
	case "|":
		return 1
	}
	return 0
}

func (p *exprParser) parseBinary(minPrec int) (int64, error) {
	lhs, err := p.parseUnary()
	if err != nil {
		return 0, err
	}
	for p.pos < len(p.toks) {
		op := p.toks[p.pos]
		prec := binaryPrec(op)
		if prec == 0 || prec < minPrec {
			break
		}
		p.pos++
		rhs, err := p.parseBinary(prec + 1)
		if err != nil {
			return 0, err
		}
		switch op {
		case "*":
			lhs *= rhs
		case "/":
			if rhs == 0 {
				return 0, fmt.Errorf("division by zero")
			}
			lhs /= rhs
		case "%":
			if rhs == 0 {
				return 0, fmt.Errorf("modulo by zero")
			}
			lhs %= rhs
		case "+":
			lhs += rhs
		case "-":
			lhs -= rhs
		case "<<":
			lhs <<= uint(rhs & 63)
		case ">>":
			lhs = int64(uint64(lhs) >> uint(rhs&63))
		case "&":
			lhs &= rhs
		case "^":
			lhs ^= rhs
		case "|":
			lhs |= rhs
		}
	}
	return lhs, nil
}

func (p *exprParser) parseUnary() (int64, error) {
	if p.pos >= len(p.toks) {
		return 0, fmt.Errorf("unexpected end of expression")
	}
	switch t := p.toks[p.pos]; t {
	case "-":
		p.pos++
		v, err := p.parseUnary()
		return -v, err
	case "+":
		p.pos++
		return p.parseUnary()
	case "~":
		p.pos++
		v, err := p.parseUnary()
		return ^v, err
	case "(":
		p.pos++
		v, err := p.parseBinary(0)
		if err != nil {
			return 0, err
		}
		if p.pos >= len(p.toks) || p.toks[p.pos] != ")" {
			return 0, fmt.Errorf("missing )")
		}
		p.pos++
		return v, nil
	default:
		p.pos++
		return p.atom(t)
	}
}

func (p *exprParser) atom(t string) (int64, error) {
	if t[0] == '\'' {
		c, err := unescapeChar(t[1 : len(t)-1])
		return int64(c), err
	}
	if t[0] >= '0' && t[0] <= '9' {
		v, err := strconv.ParseInt(t, 0, 64)
		if err != nil {
			// Allow full 32-bit unsigned literals like 0xffffffff.
			u, uerr := strconv.ParseUint(t, 0, 64)
			if uerr != nil {
				return 0, fmt.Errorf("bad number %q", t)
			}
			return int64(u), nil
		}
		return v, nil
	}
	if isIdentStart(t[0]) {
		if v, ok := p.sym[t]; ok {
			return int64(v), nil
		}
		return 0, fmt.Errorf("%w: %q", errUndefined, t)
	}
	return 0, fmt.Errorf("unexpected token %q", t)
}

func unescapeChar(s string) (byte, error) {
	if len(s) == 1 {
		return s[0], nil
	}
	if len(s) == 2 && s[0] == '\\' {
		switch s[1] {
		case 'n':
			return '\n', nil
		case 't':
			return '\t', nil
		case 'r':
			return '\r', nil
		case '0':
			return 0, nil
		case '\\':
			return '\\', nil
		case '\'':
			return '\'', nil
		case '"':
			return '"', nil
		}
	}
	return 0, fmt.Errorf("bad character escape %q", s)
}

// unescapeString interprets a quoted .ascii/.asciz argument.
func unescapeString(s string) ([]byte, error) {
	if len(s) < 2 || s[0] != '"' || s[len(s)-1] != '"' {
		return nil, fmt.Errorf("string literal must be double-quoted: %q", s)
	}
	body := s[1 : len(s)-1]
	out := make([]byte, 0, len(body))
	for i := 0; i < len(body); i++ {
		if body[i] != '\\' {
			out = append(out, body[i])
			continue
		}
		i++
		if i >= len(body) {
			return nil, fmt.Errorf("trailing backslash in %q", s)
		}
		c, err := unescapeChar(body[i-1 : i+1])
		if err != nil {
			return nil, err
		}
		out = append(out, c)
	}
	return out, nil
}
