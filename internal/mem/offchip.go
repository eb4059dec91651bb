package mem

import (
	"fmt"

	"cyclops/internal/arch"
)

// OffChip models the optional external memory of Section 2.1: 128 MB to
// 2 GB that is not directly addressable. Data moves between it and the
// embedded memory in 1 KB blocks, much like disk operations, over a single
// channel whose bandwidth is far below the embedded memory's.
type OffChip struct {
	cfg    arch.Config
	store  paged
	block  []byte // the one block in flight between the two memories
	freeAt uint64

	// Transfers counts completed block moves.
	Transfers uint64
}

// NewOffChip builds the external memory; returns nil when the
// configuration does not include one.
func NewOffChip(cfg arch.Config) *OffChip {
	if cfg.OffChipBytes == 0 {
		return nil
	}
	return &OffChip{
		cfg:   cfg,
		store: newPaged(cfg.OffChipBytes),
		block: make([]byte, cfg.OffChipBlock),
	}
}

// Size returns the external memory capacity in bytes (arch.Config.Validate
// keeps it within 32 bits).
func (o *OffChip) Size() uint32 { return uint32(o.cfg.OffChipBytes) }

// ReadBlock transfers one block from external address src to embedded
// address dst, starting no earlier than cycle now. It returns the
// completion cycle.
func (o *OffChip) ReadBlock(now uint64, m *Memory, src, dst uint32) (uint64, error) {
	if err := o.checkArgs(src, dst); err != nil {
		return now, err
	}
	o.store.read(src, o.block)
	if err := m.Write(dst, o.block); err != nil {
		return now, err
	}
	return o.charge(now), nil
}

// WriteBlock transfers one block from embedded address src to external
// address dst, starting no earlier than cycle now.
func (o *OffChip) WriteBlock(now uint64, m *Memory, src, dst uint32) (uint64, error) {
	if err := o.checkArgs(dst, src); err != nil {
		return now, err
	}
	if err := m.Read(src, o.block); err != nil {
		return now, err
	}
	o.store.write(dst, o.block)
	return o.charge(now), nil
}

func (o *OffChip) checkArgs(ext, emb uint32) error {
	blk := uint32(o.cfg.OffChipBlock)
	switch {
	case ext%blk != 0 || emb%blk != 0:
		return fmt.Errorf("mem: off-chip transfers must be %d-byte aligned (ext %#x, emb %#x)", blk, ext, emb)
	case uint64(ext)+uint64(blk) > uint64(o.Size()):
		return fmt.Errorf("mem: off-chip address %#x beyond %#x", ext, o.Size())
	}
	return nil
}

func (o *OffChip) charge(now uint64) uint64 {
	start := now
	if o.freeAt > start {
		start = o.freeAt
	}
	o.freeAt = start + uint64(o.cfg.OffChipBlockCycles)
	o.Transfers++
	return o.freeAt
}
