package vet

import (
	"fmt"
	"sort"

	"cyclops/internal/asm"
	"cyclops/internal/isa"
)

// The CFG layer: the assembled image is split into .text and data using
// the line table's Code flag (only instruction statements are decoded, so
// data that happens to decode never pollutes the analysis), instructions
// are grouped into basic blocks, and jal/jalr sites contribute call edges
// and call-return summaries.

// interval is a half-open address range [lo, hi).
type interval struct{ lo, hi uint32 }

// inst is one decoded instruction with its source-statement extent; the
// extent spans 8 bytes inside a la/li pseudo expansion, which is how the
// branch pass recognises jumps into the middle of one.
type inst struct {
	pc       uint32
	in       isa.Inst
	stmtAddr uint32
	stmtSize uint32
	// target is the static branch/jump destination (FmtB/FmtJ only).
	target    uint32
	hasTarget bool
	// exit marks syscalls whose a0 is a block-local constant SysExit:
	// they terminate the thread and end their block without fallthrough.
	exit bool
}

// edge is one CFG edge; extra carries registers defined by the edge
// itself (the call-return summary: lr and the a0..a3 result registers a
// callee may set before returning).
type edge struct {
	to    int
	extra isa.RegMask
}

// block is a basic block: insts[first..last] inclusive.
type block struct {
	first, last int
	succs       []edge
	// seed constrains the dataflow entry state for entry blocks.
	seeded bool
	seed   isa.RegMask
	// fallsOff marks a block whose execution runs past the end of its
	// code interval into data or off the image.
	fallsOff bool
}

type graph struct {
	p      *asm.Program
	insts  []inst
	index  map[uint32]int // pc -> inst index
	text   []interval     // merged code intervals, address order
	blocks []block
	blkOf  []int // inst index -> block index
	preds  [][]edge
	// entries lists entry blocks: the boot entry point plus every code
	// label whose address the program materialises into a register
	// (spawn targets, jalr callees).
	entries   []int
	reachable []bool
}

// Entry-ABI seeds (Section 3.1's kernel): a booted or spawned thread
// starts with the stack pointer and its argument in a0; an indirectly
// entered routine may additionally rely on the link register and the
// full a0..a3 argument set of the call convention. r0 is hardwired and
// never appears in effect masks, so it needs no seeding.
var (
	seedBoot     = isa.Bit(isa.RSP) | isa.Bit(isa.RArg0)
	seedIndirect = seedBoot | isa.Bit(isa.RLR) |
		isa.Bit(isa.RArg1) | isa.Bit(isa.RArg2) | isa.Bit(isa.RArg3)
	callSummary = isa.Bit(isa.RArg0) | isa.Bit(isa.RArg1) |
		isa.Bit(isa.RArg2) | isa.Bit(isa.RArg3)
)

// inText reports whether [addr, addr+size) lies inside a code interval.
func (g *graph) inText(addr, size uint32) bool {
	for _, iv := range g.text {
		if addr < iv.hi && addr+size > iv.lo {
			return true
		}
	}
	return false
}

// buildCFG decodes the program's code lines and assembles the block
// graph. Structural findings that belong to no pass's fixpoint (an entry
// point that is not code) are appended to diags directly.
func buildCFG(p *asm.Program) (*graph, []Diagnostic) {
	var diags []Diagnostic
	g := &graph{p: p, index: make(map[uint32]int)}

	// 1. Decode every instruction statement; merge the text intervals.
	for _, l := range p.Lines {
		if !l.Code || l.Size == 0 {
			continue
		}
		if n := len(g.text); n > 0 && g.text[n-1].hi == l.Addr {
			g.text[n-1].hi = l.Addr + l.Size
		} else {
			g.text = append(g.text, interval{l.Addr, l.Addr + l.Size})
		}
		for off := uint32(0); off+4 <= l.Size; off += 4 {
			pc := l.Addr + off
			g.index[pc] = len(g.insts)
			g.insts = append(g.insts, inst{
				pc: pc, in: isa.Decode(p.Word(pc)),
				stmtAddr: l.Addr, stmtSize: l.Size,
			})
		}
	}
	if len(g.insts) == 0 {
		return nil, diags
	}
	if _, ok := g.index[p.Entry]; !ok {
		diags = append(diags, Diagnostic{
			Pass: "flow", Sev: Error, PC: p.Entry,
			Msg: fmt.Sprintf("entry point %#x is not code", p.Entry),
		})
		return nil, diags
	}

	// 2. Static branch/jump targets.
	for i := range g.insts {
		in := &g.insts[i]
		f := isa.Lookup(in.in.Op).Format
		if f == isa.FmtB || f == isa.FmtJ {
			in.target = uint32(int64(in.pc) + 4 + 4*int64(in.in.Imm))
			in.hasTarget = true
		}
	}

	// 3. Entry points: the boot entry plus materialised code addresses.
	entryPCs := map[uint32]isa.RegMask{p.Entry: seedBoot}
	for _, pc := range g.materializedCodeAddrs() {
		if pc == p.Entry {
			continue
		}
		if _, ok := entryPCs[pc]; !ok {
			entryPCs[pc] = seedIndirect
		}
	}

	// 4. Leaders: entries, in-text targets, and whatever follows a
	// control transfer.
	leader := map[uint32]bool{}
	for pc := range entryPCs {
		leader[pc] = true
	}
	for i := range g.insts {
		in := &g.insts[i]
		if in.hasTarget {
			if _, ok := g.index[in.target]; ok {
				leader[in.target] = true
			}
		}
		if isControl(in.in) {
			leader[in.pc+4] = true
		}
	}

	// 5. Terminal-exit syscalls (needs leaders for the block-local scan).
	for i := range g.insts {
		if g.insts[i].in.Op == isa.OpSYSCALL {
			g.insts[i].exit = g.syscallIsExit(i, leader)
		}
	}

	// 6. Blocks.
	start := 0
	flush := func(end int) { // insts[start..end] inclusive
		g.blocks = append(g.blocks, block{first: start, last: end})
		start = end + 1
	}
	for i := range g.insts {
		atEnd := i == len(g.insts)-1
		contiguous := !atEnd && g.insts[i+1].pc == g.insts[i].pc+4
		if isControl(g.insts[i].in) || atEnd || !contiguous || leader[g.insts[i+1].pc] {
			flush(i)
		}
	}
	g.blkOf = make([]int, len(g.insts))
	blockAt := make(map[uint32]int, len(g.blocks))
	for b := range g.blocks {
		blockAt[g.insts[g.blocks[b].first].pc] = b
		for i := g.blocks[b].first; i <= g.blocks[b].last; i++ {
			g.blkOf[i] = b
		}
	}

	// 7. Edges.
	for b := range g.blocks {
		blk := &g.blocks[b]
		last := &g.insts[blk.last]
		addEdge := func(pc uint32, extra isa.RegMask) bool {
			if t, ok := blockAt[pc]; ok {
				blk.succs = append(blk.succs, edge{to: t, extra: extra})
				return true
			}
			return false
		}
		fallthrough_ := func(extra isa.RegMask) {
			if !addEdge(last.pc+4, extra) {
				blk.fallsOff = true
			}
		}
		in := last.in
		switch {
		case isa.Lookup(in.Op).Format == isa.FmtB:
			taken, never := branchStatics(in)
			if !never {
				addEdge(last.target, 0) // invalid targets are pass 6's job
			}
			if !taken {
				fallthrough_(0)
			}
		case in.Op == isa.OpJAL:
			if in.A == isa.RZero { // plain jump
				addEdge(last.target, 0)
			} else { // call: edge into the callee, resume after it
				addEdge(last.target, 0)
				fallthrough_(callSummary)
			}
		case in.Op == isa.OpJALR:
			if in.A != isa.RZero { // indirect call, unknown callee
				fallthrough_(callSummary)
			} // else: ret or indirect tail jump — no static successor
		case in.Op == isa.OpHALT:
		case in.Op == isa.OpSYSCALL && last.exit:
		default:
			fallthrough_(0)
		}
	}

	// 8. Entry seeds, predecessors, reachability.
	for pc, seed := range entryPCs {
		b := blockAt[pc]
		// A materialised address that is not a block start (mid-block
		// label) still marks its block as an entry; the branch pass
		// flags mid-expansion cases separately.
		if g.insts[g.blocks[b].first].pc != pc {
			b = g.blkOf[g.index[pc]]
		}
		blk := &g.blocks[b]
		if blk.seeded {
			blk.seed &= seed
		} else {
			blk.seeded = true
			blk.seed = seed
		}
		g.entries = append(g.entries, b)
	}
	sort.Ints(g.entries)
	g.preds = make([][]edge, len(g.blocks))
	for b := range g.blocks {
		for _, e := range g.blocks[b].succs {
			g.preds[e.to] = append(g.preds[e.to], edge{to: b, extra: e.extra})
		}
	}
	g.reachable = make([]bool, len(g.blocks))
	var stack []int
	for _, b := range g.entries {
		if !g.reachable[b] {
			g.reachable[b] = true
			stack = append(stack, b)
		}
	}
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range g.blocks[b].succs {
			if !g.reachable[e.to] {
				g.reachable[e.to] = true
				stack = append(stack, e.to)
			}
		}
	}
	return g, diags
}

// isControl reports instructions that end a basic block. The definition
// itself lives in isa.EndsBlock, which the simulator's block compiler
// also ends its blocks on.
func isControl(in isa.Inst) bool { return isa.EndsBlock(in) }

// branchStatics classifies compare-and-branch instructions whose operands
// are the same register: beq/bge/bgeu r,r always branch (the assembler's
// `b` pseudo is beq r0, r0) and bne/blt/bltu r,r never do.
func branchStatics(in isa.Inst) (alwaysTaken, neverTaken bool) {
	if in.A != in.B {
		return false, false
	}
	switch in.Op {
	case isa.OpBEQ, isa.OpBGE, isa.OpBGEU:
		return true, false
	case isa.OpBNE, isa.OpBLT, isa.OpBLTU:
		return false, true
	}
	return false, false
}

// syscallIsExit scans backwards through the syscall's straight-line
// predecessors for the defining write to a0: a block-local `li a0,
// SysExit` proves the call never returns.
func (g *graph) syscallIsExit(i int, leader map[uint32]bool) bool {
	pc := g.insts[i].pc
	for j := i - 1; j >= 0; j-- {
		if g.insts[j].pc != pc-4 || isControl(g.insts[j].in) {
			return false // crossed a gap or a control transfer
		}
		pc -= 4
		in := g.insts[j].in
		_, defs := isa.RegEffects(in)
		if defs.Has(isa.RArg0) {
			return in.Op == isa.OpADDI && in.B == isa.RZero &&
				in.Imm == isa.SysExit
		}
		if leader[pc] {
			return false // block starts here; a0 comes from a predecessor
		}
	}
	return false
}

// materializedCodeAddrs scans for code addresses the program builds into
// registers and returns them as extra entry points: spawn targets and
// indirect call destinations. Only the lui+ori pattern — what the `la`
// pseudo (and wide `li`) expands to — counts, and only when the value is
// exactly a code label's address. Short-form li constants are just
// integers; treating them as entries misfires whenever a loop bound or
// byte offset collides with a label address (`li r9, 512` in a program
// with a label at 0x200).
func (g *graph) materializedCodeAddrs() []uint32 {
	labels := map[uint32]bool{}
	for _, l := range g.p.Labels {
		labels[l.Addr] = true
	}
	var out []uint32
	seen := map[uint32]bool{}
	for i := range g.insts {
		in := g.insts[i].in
		if in.Op != isa.OpLUI || i+1 >= len(g.insts) {
			continue
		}
		next := g.insts[i+1].in
		if g.insts[i+1].pc != g.insts[i].pc+4 ||
			next.Op != isa.OpORI || next.A != in.A || next.B != in.A {
			continue
		}
		v := uint32(in.Imm)<<13 | uint32(next.Imm)
		if !seen[v] && labels[v] && g.inText(v, 4) {
			if _, ok := g.index[v]; ok {
				seen[v] = true
				out = append(out, v)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
