package job

import (
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"

	"cyclops/internal/arch"
	"cyclops/internal/core"
	"cyclops/internal/kernel"
	"cyclops/internal/sim"
)

// chipPool is a Runner's idle list: chips whose last run succeeded, each
// with the resident kernel an earlier run on it built (RunContext.Kernel),
// waiting for the next run of their shape (core.SameShape). A run takes
// the most recently returned chip of its configuration's shape off the
// list and resets it, and its kernel, to that configuration
// (core.Chip.ResetTo, kernel.Kernel.Reset), so one chip serves every fault
// configuration of its shape; or it builds a chip when there is none. It
// owns the chip until it ends, so no two runs ever share one. Only a chip
// whose run succeeded comes back: a run that errors, hits its cycle limit
// or panics may have left its chip mid-operation, and the chip is dropped
// with it. So is a chip that holds more than keepBytes.
//
// The list keeps chips of every shape its runs have used, bounded by the
// host storage they hold (pooledChip.heldBytes), not by their number: the
// idle chips together hold at most keepBytes for each run the Runner has
// had in flight at once (peak). When a returning chip takes the total past
// that, the chips that have idled longest go, whatever their shape, until
// it fits. So a one-worker sweep that moves between shapes keeps a warm
// chip of each instead of building one at every switch, and a shape never
// has more than peak idle chips: a chip is built only when none of its
// shape is idle, so at most as many of a shape exist as runs of it have
// been in flight at once.
type chipPool struct {
	mu            sync.Mutex
	idle          []*pooledChip // least recently returned first
	held          int           // bytes the idle chips hold
	running, peak int
	built         atomic.Uint64 // chips get has built
}

// pooledChip is a chip and the kernel over it, built by the first run on
// the chip that asked for one (nil until then), and the bytes it held when
// its last run returned it (heldBytes), which it holds while idle.
type pooledChip struct {
	chip *core.Chip
	kern *kernel.Kernel
	held int
}

// get hands a run its chip for cfg, at power-on for cfg: the most recently
// returned idle chip of cfg's shape, reset to cfg, else a new one.
func (p *chipPool) get(cfg arch.Config) (*pooledChip, error) {
	p.mu.Lock()
	p.running++
	p.peak = max(p.peak, p.running)
	for i := len(p.idle) - 1; i >= 0; i-- {
		if pc := p.idle[i]; core.SameShape(pc.chip.Cfg, cfg) {
			p.idle = slices.Delete(p.idle, i, i+1)
			p.held -= pc.held
			p.mu.Unlock()
			err := pc.chip.ResetTo(cfg)
			if err != nil {
				p.put(nil, false)
				return nil, err
			}
			if pc.kern != nil {
				pc.kern.Reset()
			}
			return pc, nil
		}
	}
	p.mu.Unlock()
	c, err := core.NewChip(cfg)
	if err != nil {
		p.put(nil, false)
		return nil, err
	}
	p.built.Add(1)
	return &pooledChip{chip: c}, nil
}

// keepBytes bounds the host storage one chip on the idle list may hold,
// and each run in flight adds as much to what the list holds in all. A
// reset chip holds the pages of the largest footprint any run on it has
// had, so a chip that once ran a large problem would hold them for as long
// as its shape stays in use; a chip past the bound is dropped instead.
// 8 MB is the whole embedded memory of the paper's configuration and the
// ninth covers what its cache tables (256 KB) and thread units (128 of
// ~1 KB) add, so only a larger configuration or external-memory traffic
// can exceed it.
const keepBytes = 9 << 20

// unitBytes is the host storage of one thread unit a pooled machine built.
const unitBytes = int(unsafe.Sizeof(sim.TU{}))

// heldBytes is the host storage pc's runs have backed and its resets keep:
// the chip's pages and cache tables (core.Chip.HeldBytes) and the thread
// units its kernel's machine built.
func (pc *pooledChip) heldBytes() int {
	n := pc.chip.HeldBytes()
	if pc.kern != nil {
		n += pc.kern.Machine().BuiltUnits() * unitBytes
	}
	return n
}

// put ends a run that took pc from get (nil when get failed). A chip whose
// run succeeded goes back on the list, as its run left it, unless it holds
// more than keepBytes; any other is dropped. When the list then holds more
// than keepBytes per run ever in flight, the chips idle longest are
// dropped until it fits. The next get of its shape resets it.
func (p *chipPool) put(pc *pooledChip, ok bool) {
	if ok {
		pc.held = pc.heldBytes()
		ok = pc.held <= keepBytes
	}
	p.mu.Lock()
	p.running--
	if ok {
		p.idle = append(p.idle, pc)
		p.held += pc.held
		for p.held > p.peak*keepBytes {
			p.held -= p.idle[0].held
			p.idle = slices.Delete(p.idle, 0, 1)
		}
	}
	p.mu.Unlock()
}
