package cache

import "cyclops/internal/arch"

// ICache is one 32 KB instruction cache shared by two quads (private to
// the quad pair, unlike the data caches). Each thread fetches through its
// 16-entry Prefetch Instruction Buffer; a PIB refill pulls one I-cache
// line, and an I-cache miss pulls the line from memory.
type ICache struct {
	lineShift uint
	setMask   uint32
	assoc     int
	// tags and lru are indexed set*assoc+way, as in DCache. Until the
	// first miss the cache is unbacked: tags is a zero table shared
	// read-only with other caches (zeroTags), on which Fetch always
	// misses, and lru is nil.
	tags  []uint32
	lru   []uint32
	stamp uint32

	Hits, Misses uint64
}

// NewICache builds an unbacked instruction cache from the configuration
// geometry.
func NewICache(cfg arch.Config) *ICache {
	lines := cfg.ICacheBytes / cfg.ICacheLine
	sets := lines / cfg.ICacheAssoc
	ic := &ICache{
		assoc:   cfg.ICacheAssoc,
		setMask: uint32(sets - 1),
		tags:    zeroTags(lines),
	}
	for ic.lineShift = 0; 1<<ic.lineShift < cfg.ICacheLine; ic.lineShift++ {
	}
	return ic
}

// Fetch probes for the line containing addr, installing it on a miss.
// It reports whether the access hit.
func (ic *ICache) Fetch(addr uint32) bool {
	line := addr>>ic.lineShift + 1
	set := (line - 1) & ic.setMask
	base := int(set) * ic.assoc
	victim := 0
	for w := 0; w < ic.assoc; w++ {
		if ic.tags[base+w] == line {
			ic.stamp++
			ic.lru[base+w] = ic.stamp
			ic.Hits++
			return true
		}
		if ic.tags[base+w] == 0 {
			victim = w
		} else if ic.tags[base+victim] != 0 && ic.lru[base+w] < ic.lru[base+victim] {
			victim = w
		}
	}
	ic.Misses++
	if ic.lru == nil {
		ic.back()
	}
	ic.stamp++
	ic.tags[base+victim] = line
	ic.lru[base+victim] = ic.stamp
	return false
}

// back gives an unbacked cache its own tag and LRU tables, both empty, as
// its first miss needs them.
func (ic *ICache) back() {
	n := len(ic.tags)
	ic.tags, ic.lru = make([]uint32, n), make([]uint32, n)
}
