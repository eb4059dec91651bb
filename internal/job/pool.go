package job

import (
	"slices"
	"sync"

	"cyclops/internal/arch"
	"cyclops/internal/core"
)

// chipPool is a Runner's idle list: chips whose last run succeeded,
// reset to power-on (core.Chip.Reset) and waiting for the next run of
// their configuration. A run takes a chip of its configuration off the
// list, or builds one when there is none, and owns it until it ends, so
// no two runs ever share a chip. Only a chip whose run succeeded comes
// back: a run that errors, hits its cycle limit or panics may have left
// its chip mid-operation, and the chip is dropped with it. So is a chip
// that holds more than keepBytes of memory.
//
// The list holds at most as many chips as the Runner has had runs in
// flight at once (a sweep's workers, a server's executions), so a
// one-worker sweep keeps one chip. When a returning chip would exceed
// that, the chip that has idled longest goes, whatever its
// configuration, so a sweep that moves on to another configuration
// keeps chips of the new one.
type chipPool struct {
	mu            sync.Mutex
	idle          []*core.Chip // least recently returned first
	running, peak int
}

// get hands a run its chip for cfg: the most recently returned idle chip
// of that configuration, else a new one.
func (p *chipPool) get(cfg arch.Config) (*core.Chip, error) {
	p.mu.Lock()
	p.running++
	p.peak = max(p.peak, p.running)
	for i := len(p.idle) - 1; i >= 0; i-- {
		if c := p.idle[i]; c.Cfg == cfg {
			p.idle = slices.Delete(p.idle, i, i+1)
			p.mu.Unlock()
			return c, nil
		}
	}
	p.mu.Unlock()
	c, err := core.NewChip(cfg)
	if err != nil {
		p.put(nil, false)
	}
	return c, err
}

// keepBytes bounds the host storage behind a chip's embedded and external
// memory that the idle list keeps. A reset chip holds the pages of the
// largest footprint any run on it has had, so a chip that once ran a
// large problem would hold them for as long as its configuration stays in
// use; a chip past the bound is dropped instead. 8 MB is the whole
// embedded memory of the paper's configuration, so only a larger
// configuration or external-memory traffic can exceed it.
const keepBytes = 8 << 20

// put ends a run that took a chip from get, c (nil when get failed). A
// chip whose run succeeded is reset and goes back on the list, unless it
// holds more than keepBytes; any other is dropped.
func (p *chipPool) put(c *core.Chip, ok bool) {
	ok = ok && heldBytes(c) <= keepBytes
	if ok {
		c.Reset()
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.running--
	if ok {
		p.idle = append(p.idle, c)
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
