package job

import (
	"slices"
	"sync"

	"cyclops/internal/arch"
	"cyclops/internal/core"
	"cyclops/internal/kernel"
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
// with it. So is a chip that holds more than keepBytes of memory.
//
// The list holds at most as many chips as the Runner has had runs in
// flight at once (a sweep's workers, a server's executions), so a
// one-worker sweep keeps one chip. When a returning chip would exceed
// that, the chip that has idled longest goes, whatever its shape, so a
// sweep that moves on to another shape keeps chips of the new one.
type chipPool struct {
	mu            sync.Mutex
	idle          []*pooledChip // least recently returned first
	running, peak int
}

// pooledChip is a chip and the kernel over it, built by the first run on
// the chip that asked for one (nil until then).
type pooledChip struct {
	chip *core.Chip
	kern *kernel.Kernel
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
	return &pooledChip{chip: c}, nil
}

// keepBytes bounds the host storage behind a chip's embedded and external
// memory that the idle list keeps. A reset chip holds the pages of the
// largest footprint any run on it has had, so a chip that once ran a
// large problem would hold them for as long as its configuration stays in
// use; a chip past the bound is dropped instead. 8 MB is the whole
// embedded memory of the paper's configuration, so only a larger
// configuration or external-memory traffic can exceed it.
const keepBytes = 8 << 20

// put ends a run that took pc from get (nil when get failed). A chip whose
// run succeeded goes back on the list, as its run left it, unless it holds
// more than keepBytes; any other is dropped. The next get of its shape
// resets it.
func (p *chipPool) put(pc *pooledChip, ok bool) {
	ok = ok && heldBytes(pc.chip) <= keepBytes
	p.mu.Lock()
	defer p.mu.Unlock()
	p.running--
	if ok {
		p.idle = append(p.idle, pc)
		if len(p.idle) > p.peak {
			p.idle = slices.Delete(p.idle, 0, 1)
		}
	}
}

// heldBytes is the host storage behind c's embedded and external memory.
func heldBytes(c *core.Chip) int {
	n := c.Mem.HeldBytes()
	if c.OffChip != nil {
		n += c.OffChip.HeldBytes()
	}
	return n
}
