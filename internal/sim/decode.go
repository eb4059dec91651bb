package sim

import "cyclops/internal/isa"

// Compile-time decoding for the block engine, and the invalidation of what
// it compiled. The legacy engine re-reads and re-decodes the instruction
// word from embedded memory on every issue; the block compiler decodes each
// text word once, when the block containing it is compiled.
//
// Correctness under self-modifying code: every decoded word registers its
// text page with mem.Memory.WatchCode. Any write overlapping a watched
// range — a store instruction, an off-chip DMA block, a program reload —
// bumps the memory's code generation; the engine compares that generation
// before any op that may follow a write and flushes every compiled block
// when it moves. Flushes are rare (text stores only), so the common path
// pays one load and compare.

// codePageShift sizes the watch granule at 1 KB of text.
const codePageShift = 10

// decodeAt reads and decodes the instruction word at pc for the block
// compiler, watching its text page. It never traps: an illegal word
// decodes to isa.OpInvalid, an unreadable one returns OpInvalid with the
// fetch error, and the compiler turns either into a trap op that fires
// only if execution actually reaches pc.
func (m *Machine) decodeAt(pc uint32) (isa.Inst, uint32, error) {
	pk := pc >> codePageShift
	m.Chip.Mem.WatchCode(pk<<codePageShift, (pk+1)<<codePageShift)
	word, err := m.Chip.Mem.Read32(pc)
	if err != nil {
		return isa.Inst{}, 0, err
	}
	return isa.Decode(word), word, nil
}

// flushBlocks drops every compiled block and per-thread block hint. Called
// when the memory's code generation moves (a write landed in watched text).
func (m *Machine) flushBlocks() {
	if m.blocks != nil {
		m.blocks = nil
		m.blockFlushes++
	}
	for _, tu := range m.TUs {
		tu.blk = nil
	}
}
