// Package cache models the Cyclops cache level: 32 software-controlled
// data caches shared across the chip through a cache switch, and 16
// instruction caches private to quad pairs with per-thread prefetch
// instruction buffers (Section 2.1).
//
// The data caches track presence only (tags + LRU). The chip's single
// physical memory array in package mem always holds the data: the caches
// are write-through with no write-allocate, so a hit or miss changes
// timing, never values. Real Cyclops hardware does not keep replicated
// lines coherent (interest group zero can replicate); modeling tags only
// makes replicas trivially consistent, which is conservative for the
// benchmarks the paper runs — none of them relies on incoherent replicas.
package cache

import "cyclops/internal/arch"

// DCache is one 16 KB quad data cache: set-associative tags with LRU
// replacement and optional scratchpad partitioning.
type DCache struct {
	lineShift uint
	setMask   uint32
	assoc     int
	// scratchWays ways are removed from the cached region and exposed as
	// directly addressable fast memory (the 2 KB-granularity partitioning
	// of Section 2.1; one way of the 16 KB/8-way design is exactly 2 KB).
	scratchWays int

	// tags[set*assoc+way] holds the line address (addr >> lineShift) + 1;
	// zero means invalid. Until the first Install the cache is unbacked:
	// tags is a zero table it shares read-only with other caches
	// (zeroTags), on which probe finds nothing, and lru and readyAt are
	// nil. Install gives the cache its own three tables (back).
	tags []uint32
	// lru[set*assoc+way] holds a per-set use stamp.
	lru   []uint32
	stamp uint32
	// readyAt[set*assoc+way] is the cycle the line's fill completes; an
	// access that hits a line still in flight cannot finish before it
	// (the effect that penalises cyclic STREAM partitioning, where the
	// eight threads of a group touch a line while it is being fetched).
	readyAt []uint64

	Hits, Misses uint64
}

// NewDCache builds an unbacked data cache from the configuration geometry.
func NewDCache(cfg arch.Config) *DCache {
	lines := cfg.DCacheBytes / cfg.DCacheLine
	sets := lines / cfg.DCacheAssoc
	d := &DCache{
		assoc:   cfg.DCacheAssoc,
		setMask: uint32(sets - 1),
		tags:    zeroTags(lines),
	}
	for d.lineShift = 0; 1<<d.lineShift < cfg.DCacheLine; d.lineShift++ {
	}
	return d
}

// zeros is the tag table of every unbacked cache, data or instruction, of
// a geometry it covers (the default's are 256 and 1024 lines): caches only
// read it, since each writes its tags only after back gave it its own, so
// it stays zero and costs the heap nothing.
var zeros [4096]uint32

// zeroTags returns an n-entry zero tag table for unbacked caches to share.
func zeroTags(n int) []uint32 {
	if n <= len(zeros) {
		return zeros[:n:n]
	}
	return make([]uint32, n)
}

// back gives an unbacked cache its own tag, LRU and fill tables, all
// empty, as its first Install needs them.
func (d *DCache) back() {
	n := len(d.tags)
	d.tags, d.lru, d.readyAt = make([]uint32, n), make([]uint32, n), make([]uint64, n)
}

// SetScratchWays reserves n ways (n x 2 KB at the default geometry) as
// addressable fast memory, leaving assoc-n ways for caching. Reserved ways
// are invalidated. It reports whether n was acceptable (0 <= n < assoc).
func (d *DCache) SetScratchWays(n int) bool {
	if n < 0 || n >= d.assoc {
		return false
	}
	d.scratchWays = n
	if d.lru == nil {
		return true // unbacked: no way holds a line
	}
	for set := uint32(0); set <= d.setMask; set++ {
		for w := 0; w < n; w++ {
			d.tags[int(set)*d.assoc+w] = 0
		}
	}
	return true
}

// ScratchWays returns the current scratchpad partitioning.
func (d *DCache) ScratchWays() int { return d.scratchWays }

// Lookup probes for the line containing addr, updating LRU and hit/miss
// counters. It does not allocate. On a hit, ready is the cycle the line's
// most recent fill completes: accesses that catch a line in flight cannot
// finish earlier.
func (d *DCache) Lookup(addr uint32) (hit bool, ready uint64) {
	if i := d.probe(addr); i >= 0 {
		return true, d.touch(i)
	}
	d.Misses++
	return false, 0
}

// Install allocates the line containing addr with a fill completing at
// ready, evicting the LRU way of its set if necessary, and returns the
// line's tag slot. With zero cache ways (full scratch partitioning is
// disallowed) there is always a victim.
func (d *DCache) Install(addr uint32, ready uint64) int {
	if d.lru == nil {
		d.back()
	}
	line := addr>>d.lineShift + 1
	set := (line - 1) & d.setMask
	base := int(set) * d.assoc
	victim := d.scratchWays
	for w := d.scratchWays; w < d.assoc; w++ {
		if d.tags[base+w] == line {
			return base + w // already present (racing installs)
		}
		if d.tags[base+w] == 0 {
			victim = w
			break
		}
		if d.lru[base+w] < d.lru[base+victim] {
			victim = w
		}
	}
	d.stamp++
	i := base + victim
	d.tags[i] = line
	d.lru[i] = d.stamp
	d.readyAt[i] = ready
	return i
}

// InvalidateAll empties the cache (a disabled quad loses its contents).
func (d *DCache) InvalidateAll() {
	if d.lru == nil {
		return // unbacked: already empty
	}
	for i := range d.tags {
		d.tags[i] = 0
		d.lru[i] = 0
	}
}
