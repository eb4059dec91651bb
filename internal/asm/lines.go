package asm

import (
	"fmt"
	"sort"
	"strings"
)

// Line maps one emitted statement to its source line: the profiler's
// symbolization path and the -listing output are both built from this
// table. Entries are sorted by Addr and never overlap (the location
// counter only moves forward).
type Line struct {
	// Addr is the first byte the statement emitted; Size is how many
	// bytes it covers (8 for la and wide li, 4 for other instructions,
	// the data length for directives).
	Addr, Size uint32
	// Line is the 1-based source line number.
	Line int32
	// Code marks instruction statements (including pseudo expansions);
	// data directives leave it false. The vet analyzer's text/data split
	// is built from this flag.
	Code bool
}

// Label is one code label in address order. Unlike Symbols this excludes
// .equ names (which are values, not addresses), so a nearest-label search
// over it always lands on a real program location.
type Label struct {
	Name string
	Addr uint32
}

// Locate returns the source line whose statement covers addr.
func (p *Program) Locate(addr uint32) (line int, ok bool) {
	i := sort.Search(len(p.Lines), func(i int) bool { return p.Lines[i].Addr > addr })
	if i == 0 {
		return 0, false
	}
	l := p.Lines[i-1]
	if addr >= l.Addr+l.Size {
		return 0, false
	}
	return int(l.Line), true
}

// NearestLabel returns the last label at or before addr and the byte
// offset from it — the "stream_triad+0x18" form of a program counter.
func (p *Program) NearestLabel(addr uint32) (name string, off uint32, ok bool) {
	i := sort.Search(len(p.Labels), func(i int) bool { return p.Labels[i].Addr > addr })
	if i == 0 {
		return "", 0, false
	}
	l := p.Labels[i-1]
	return l.Name, addr - l.Addr, true
}

// SymbolizePC renders addr as "label+0xoff (file:line)", degrading
// gracefully when the label, line table or file name is missing.
func (p *Program) SymbolizePC(addr uint32) string {
	name, off, ok := p.NearestLabel(addr)
	if !ok {
		return fmt.Sprintf("%#x", addr)
	}
	s := name
	if off > 0 {
		s += fmt.Sprintf("+%#x", off)
	}
	if line, ok := p.Locate(addr); ok {
		file := p.File
		if file == "" {
			file = "?"
		}
		s += fmt.Sprintf(" (%s:%d)", file, line)
	}
	return s
}

// FuncName names the enclosing function of addr — the nearest label,
// or the hex address outside any label. Together with SymbolizePC this
// makes *Program a prof.Symbolizer.
func (p *Program) FuncName(addr uint32) string {
	name, _, ok := p.NearestLabel(addr)
	if !ok {
		return fmt.Sprintf("%#x", addr)
	}
	return name
}

// SourceFile returns the source path for reports ("?" when unset).
func (p *Program) SourceFile() string {
	if p.File == "" {
		return "?"
	}
	return p.File
}

// buildLineTable fills Lines and Labels from the laid-out statements; it
// runs after a successful emit, so addresses and the symbol table are
// final.
func (a *assembler) buildLineTable(p *Program) {
	p.Lines = make([]Line, 0, len(a.stmts)) // at most one per statement
	for i := range a.stmts {
		st := &a.stmts[i]
		if st.size == 0 {
			continue
		}
		if st.kind == stDirective && st.name == ".align" {
			continue // padding has no meaningful source line
		}
		p.Lines = append(p.Lines, Line{Addr: st.addr, Size: st.size, Line: st.line, Code: st.kind == stInst})
	}
	p.Labels = make([]Label, 0, len(a.symbols)-len(a.equs))
	for name, addr := range a.symbols {
		if a.equs[name] {
			continue
		}
		p.Labels = append(p.Labels, Label{Name: name, Addr: addr})
	}
	sort.Slice(p.Labels, func(i, j int) bool {
		if p.Labels[i].Addr != p.Labels[j].Addr {
			return p.Labels[i].Addr < p.Labels[j].Addr
		}
		return p.Labels[i].Name < p.Labels[j].Name
	})
}

// Listing renders an address/bytes/source listing of the program against
// its source text: one row per emitted statement, with the image bytes in
// memory order. Data longer than one row's worth of bytes is elided with
// its size.
func Listing(p *Program, src string) string {
	lines := strings.Split(src, "\n")
	var sb strings.Builder
	sb.WriteString("  addr      bytes             line  source\n")
	for _, l := range p.Lines {
		text := ""
		if int(l.Line) >= 1 && int(l.Line) <= len(lines) {
			text = strings.ReplaceAll(lines[l.Line-1], "\t", "        ")
		}
		var bytes string
		const maxShown = 8
		off := l.Addr - p.Origin
		n := l.Size
		if n > maxShown {
			n = maxShown
		}
		for i := uint32(0); i < n; i++ {
			bytes += fmt.Sprintf("%02x", p.Bytes[off+i])
		}
		if l.Size > maxShown {
			bytes += fmt.Sprintf("+%d", l.Size-maxShown)
		}
		fmt.Fprintf(&sb, "  %06x  %-16s %5d  %s\n", l.Addr, bytes, l.Line, text)
	}
	return sb.String()
}
