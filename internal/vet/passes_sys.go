package vet

import (
	"fmt"

	"cyclops/internal/isa"
)

// Pass spr: the SPR protocol the simulator enforces at run time (exec
// traps on bad SPR numbers), checked statically. Writes to read-only or
// undefined SPRs and reads of undefined SPRs are errors. Barrier
// arrival/wait pairing moved to the barrier pass, which checks it per
// thread root against the inter-thread model.
func passSPR(g *graph, diags *[]Diagnostic) {
	for i := range g.insts {
		in := g.insts[i].in
		switch in.Op {
		case isa.OpMTSPR:
			switch {
			case in.Imm == isa.SPRBarrier:
				// Writable; pairing is the barrier pass's job.
			case isa.ReadOnlySPR(in.Imm):
				*diags = append(*diags, Diagnostic{
					Pass: "spr", Sev: Error, PC: g.insts[i].pc,
					Msg: fmt.Sprintf("mtspr to read-only SPR %d (%s)", in.Imm, isa.SPRName(in.Imm)),
				})
			default:
				*diags = append(*diags, Diagnostic{
					Pass: "spr", Sev: Error, PC: g.insts[i].pc,
					Msg: fmt.Sprintf("mtspr to undefined SPR %d", in.Imm),
				})
			}
		case isa.OpMFSPR:
			if !isa.KnownSPR(in.Imm) {
				*diags = append(*diags, Diagnostic{
					Pass: "spr", Sev: Error, PC: g.insts[i].pc,
					Msg: fmt.Sprintf("mfspr from undefined SPR %d", in.Imm),
				})
			}
		}
	}
}

// instSuccs returns the instruction-level successors of insts[i].
func (g *graph) instSuccs(i int) []int {
	b := g.blkOf[i]
	if i < g.blocks[b].last {
		return []int{i + 1}
	}
	var out []int
	for _, e := range g.blocks[b].succs {
		out = append(out, g.blocks[e.to].first)
	}
	return out
}

// barrierReadFollows searches forward from the arrival at insts[i] for a
// barrier read, stopping at the next arrival (a later barrier's spin
// must not satisfy this one).
func (g *graph) barrierReadFollows(i int) bool {
	visited := map[int]bool{}
	work := g.instSuccs(i)
	for len(work) > 0 {
		j := work[0]
		work = work[1:]
		if visited[j] {
			continue
		}
		visited[j] = true
		in := g.insts[j].in
		if in.Op == isa.OpMFSPR && in.Imm == isa.SPRBarrier {
			return true
		}
		if in.Op == isa.OpMTSPR && in.Imm == isa.SPRBarrier {
			continue // next barrier episode starts here
		}
		work = append(work, g.instSuccs(j)...)
	}
	return false
}

// Pass smc: stores whose address constant-propagation proves to be inside
// the instruction stream. The simulator executes patched words (a write
// into compiled text flushes the block engine's code), but a store into
// text is far more often a stray pointer than an overlay; they are
// reported as warnings because a program may legitimately patch code.
func passSMC(g *graph, diags *[]Diagnostic) {
	in, have := g.solveConsts()
	for b := range g.blocks {
		if !g.reachable[b] || !have[b] {
			continue
		}
		st := in[b] // copy
		blk := &g.blocks[b]
		for i := blk.first; i <= blk.last; i++ {
			inst := g.insts[i].in
			info := isa.Lookup(inst.Op)
			if info.Store {
				base, off, size := storeShape(inst)
				if v, ok := st.get(base); ok {
					addr := v + off
					if g.inText(addr, size) {
						*diags = append(*diags, Diagnostic{
							Pass: "smc", Sev: Warn, PC: g.insts[i].pc,
							Msg: fmt.Sprintf("store writes code at %#x (%s); the simulator will not re-decode it",
								addr, g.describeAddr(addr)),
						})
					}
				}
			}
			cstep(&st, inst)
		}
	}
}

// storeShape returns the base register, immediate offset and width in
// bytes of a store; atomics address through ra with no offset.
func storeShape(in isa.Inst) (base uint8, off, size uint32) {
	switch in.Op {
	case isa.OpSB:
		return in.B, uint32(in.Imm), 1
	case isa.OpSH:
		return in.B, uint32(in.Imm), 2
	case isa.OpSW:
		return in.B, uint32(in.Imm), 4
	case isa.OpSD:
		return in.B, uint32(in.Imm), 8
	default: // amoadd/amoswap/amocas: rd, (ra), rb
		return in.B, 0, 4
	}
}

// describeAddr renders addr as label+offset when the program has labels.
func (g *graph) describeAddr(addr uint32) string {
	name, off, ok := g.p.NearestLabel(addr)
	if !ok {
		return fmt.Sprintf("%#x", addr)
	}
	if off == 0 {
		return name
	}
	return fmt.Sprintf("%s+%#x", name, off)
}
