package sim

import "cyclops/internal/isa"

// Compile-time decoding for the block engine, and the invalidation of what
// it compiled. The legacy engine re-reads and re-decodes the instruction
// word from embedded memory on every issue; the block compiler decodes each
// text word once, when the block containing it is compiled.
//
// Correctness under self-modifying code: every decoded word registers
// itself with mem.Memory.WatchCode, which keeps the one range spanning all
// of them. Any write overlapping that range — a store instruction, an
// off-chip DMA block, a program reload — bumps the memory's code
// generation; the engine compares that generation before any op that may
// follow a write and flushes every compiled block when it moves. The watch
// is exactly the decoded words, not their pages, so data assembled right
// after the text (a result array, a lock word) can be stored to without
// flushing; the common path pays one load and compare.

// decodeAt reads and decodes the instruction word at pc for the block
// compiler, watching that word. It never traps: an illegal word
// decodes to isa.OpInvalid, an unreadable one returns OpInvalid with the
// fetch error, and the compiler turns either into a trap op that fires
// only if execution actually reaches pc.
func (m *Machine) decodeAt(pc uint32) (isa.Inst, uint32, error) {
	m.mem.WatchCode(pc, pc+4)
	word, err := m.mem.Read32(pc)
	if err != nil {
		return isa.Inst{}, 0, err
	}
	return isa.Decode(word), word, nil
}

// flushBlocks drops every compiled block and the block hints of the units
// on the active list, the only ones that issue; Start drops the hint of a
// unit it lists. Called when the memory's code generation moves (a write
// landed in watched text).
func (m *Machine) flushBlocks() {
	if m.blocks != nil {
		m.blocks = nil
		m.blockFlushes++
	}
	for _, tu := range m.active {
		tu.blk = nil
	}
}
