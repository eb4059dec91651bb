package cache

import (
	"cyclops/internal/arch"
	"cyclops/internal/mem"
	"cyclops/internal/obs"
)

// Where classifies where a data access was satisfied, matching the four
// memory rows of Table 2.
type Where uint8

const (
	// LocalHit: found in the accessing thread's quad cache (1+6 cycles).
	LocalHit Where = iota
	// LocalMiss: allocated into the quad cache from memory (1+24).
	LocalMiss
	// RemoteHit: found in another quad's cache via the switch (1+17).
	RemoteHit
	// RemoteMiss: allocated into a remote cache from memory (1+36).
	RemoteMiss
	// StoreThrough: a write-through store; retires in one port cycle.
	StoreThrough
)

func (w Where) String() string {
	switch w {
	case LocalHit:
		return "local hit"
	case LocalMiss:
		return "local miss"
	case RemoteHit:
		return "remote hit"
	case RemoteMiss:
		return "remote miss"
	case StoreThrough:
		return "store"
	}
	return "?"
}

// Wait attributes the delays one access experienced beyond the unloaded
// Table 2 latency of its outcome class. The attribution is produced here,
// once, and consumed only by the timing ledger (internal/timing), which
// owns the rule splitting a blocking stall between the coarse cacheport
// and bankconflict stall reasons and accumulates the finer per-kind
// telemetry (obs.MemWaits).
type Wait struct {
	// Port is the cycles the access queued for the cache's single
	// 8-byte port.
	Port uint64
	// Bank is the DRAM bank burst queueing delay: fill FIFO waits and
	// write-combining backlog (write backpressure).
	Bank uint64
	// Fill is the wait on a line still in flight from a concurrent miss
	// (the model's MSHR semantics).
	Fill uint64
	// Hop is the cache-switch transit of a remote access beyond the
	// local latency of the same class (remote hit 17 vs local 6, remote
	// miss 36 vs local 24).
	Hop uint64
}

// Access describes the outcome of one timed data access.
type Access struct {
	// Done is the cycle at which the loaded value is available to
	// dependent instructions (for stores: when the thread may proceed).
	Done uint64
	// Where the access was satisfied.
	Where Where
	// Cache is the data cache that served the access.
	Cache int
	// Wait attributes the access's queueing and transit delays.
	Wait Wait
}

// System is the data side of the memory hierarchy: the 32 quad caches, the
// cache switch, and the embedded memory behind them. Both the
// instruction-level simulator and the direct-execution runtime time their
// data accesses through exactly this object.
type System struct {
	Cfg    arch.Config
	Mem    *mem.Memory
	Caches []*DCache

	// port[i] is the first cycle cache i's single 8-byte port is free.
	port []uint64
	// portBusy accumulates per-cache port occupancy for utilization.
	portBusy []uint64
	// portGrants/portConflicts/portWait are the per-port telemetry the
	// observability layer exports (obs.ResourceStats).
	portGrants    []uint64
	portConflicts []uint64
	portWait      []uint64
	// lineShift is log2(DCacheLine) for interest-group scrambling.
	lineShift uint
	// fillPortCycles is the port occupancy of a line fill.
	fillPortCycles uint64

	// disabled[q] marks quad q's cache out of service (Section 5 fault
	// tolerance: a broken FPU disables its whole quad); nDisabled counts
	// them. Both are set at boot only.
	disabled  []bool
	nDisabled int

	// Stats by outcome.
	Counts [5]uint64
}

// NewSystem builds the cache system over an existing memory.
func NewSystem(cfg arch.Config, m *mem.Memory) *System {
	n := cfg.Quads()
	s := &System{
		Cfg:            cfg,
		Mem:            m,
		Caches:         make([]*DCache, n),
		port:           make([]uint64, n),
		portBusy:       make([]uint64, n),
		portGrants:     make([]uint64, n),
		portConflicts:  make([]uint64, n),
		portWait:       make([]uint64, n),
		fillPortCycles: uint64(cfg.DCacheLine / cfg.DCachePortBytes),
		disabled:       make([]bool, n),
	}
	for i := range s.Caches {
		s.Caches[i] = NewDCache(cfg)
	}
	for s.lineShift = 0; 1<<s.lineShift < cfg.DCacheLine; s.lineShift++ {
	}
	return s
}

// DisableQuad takes quad q's cache out of service; accesses that would map
// there are redirected to the next live quad (Section 5). It reports
// whether q was valid and previously enabled.
func (s *System) DisableQuad(q int) bool {
	if q < 0 || q >= len(s.Caches) || s.disabled[q] {
		return false
	}
	if s.nDisabled == len(s.Caches)-1 {
		return false // at least one quad must survive
	}
	s.disabled[q] = true
	s.nDisabled++
	s.Caches[q].InvalidateAll()
	return true
}

// QuadDisabled reports whether quad q's cache is out of service.
func (s *System) QuadDisabled(q int) bool { return s.disabled[q] }

// CacheFor exposes placement resolution (used by tests and the kernel).
func (s *System) CacheFor(ea uint32, ownCache int) int { return s.resolve(ea, ownCache) }

// PartitionScratch reserves n ways (n x 2 KB at the default geometry) of
// quad q's cache as software-managed fast memory (Section 2.1), shrinking
// the cached region. The threads sharing the cache must agree on the
// organisation; this model charges the remaining ways' capacity, while
// scratch accesses themselves ride the normal local-hit path.
func (s *System) PartitionScratch(q, n int) bool {
	if q < 0 || q >= len(s.Caches) {
		return false
	}
	return s.Caches[q].SetScratchWays(n)
}

// Load times a data load of size bytes at effective address ea, issued at
// cycle now by a thread homed on quad ownCache. It is the one-access form
// of LoadRun (run.go), with which it shares the Table 2 arithmetic.
func (s *System) Load(now uint64, ea uint32, size int, ownCache int) Access {
	c := s.resolve(ea, ownCache)
	phys := arch.Phys(ea)
	local := c == ownCache
	start := s.takePort(c, now, 1)

	if hit, ready := s.Caches[c].Lookup(phys); hit {
		w, lat, hop := s.outcome(true, local)
		s.Counts[w]++
		// A line still in flight from a concurrent miss completes the
		// access when its fill does.
		done, fill := later(start+lat, ready)
		return Access{Done: done, Where: w, Cache: c,
			Wait: Wait{Port: start - now, Fill: fill, Hop: hop}}
	}

	_, queue := s.fill(c, start, phys, s.Mem.BankFor(phys))
	w, lat, hop := s.outcome(false, local)
	s.Counts[w]++
	return Access{Done: start + lat + queue, Where: w, Cache: c,
		Wait: Wait{Port: start - now, Bank: queue, Hop: hop}}
}

// Store times a write-through store. The thread normally proceeds after
// the port cycle; when the target bank's write buffer is full the store
// blocks until the backlog drains, pacing store traffic to the memory's
// service rate. If the line is present in the target cache it is updated
// in place (the tags stay); no allocation happens on a store miss. It is
// the one-access form of StoreRun (run.go).
func (s *System) Store(now uint64, ea uint32, size int, ownCache int) Access {
	c := s.resolve(ea, ownCache)
	phys := arch.Phys(ea)
	start := s.takePort(c, now, 1)
	// Keep LRU/tag state truthful: a store hit refreshes the line.
	s.Caches[c].Lookup(phys)
	done, bank := later(start+1, s.Mem.WriteBank(s.Mem.BankFor(phys), start, size))
	s.Counts[StoreThrough]++
	return Access{Done: done, Where: StoreThrough, Cache: c,
		Wait: Wait{Port: start - now, Bank: bank}}
}

// Atomic times a read-modify-write (amoadd/amoswap/amocas). It behaves as
// a load for latency — the old value must return to the thread — plus the
// write-through traffic of the store half. The cache port is held for both
// halves, serialising concurrent atomics on one location's cache.
func (s *System) Atomic(now uint64, ea uint32, size int, ownCache int) Access {
	a := s.Load(now, ea, size, ownCache)
	s.takePort(a.Cache, a.Done, 1)
	s.Mem.WriteThrough(a.Done, arch.Phys(ea), size)
	a.Done++
	return a
}

// takePort reserves n cycles of cache c's port starting no earlier than
// now; it returns the cycle service actually began.
func (s *System) takePort(c int, now uint64, n uint64) uint64 {
	start := now
	if s.port[c] > start {
		start = s.port[c]
		s.portConflicts[c]++
		s.portWait[c] += start - now
	}
	s.portGrants[c]++
	s.port[c] = start + n
	s.portBusy[c] += n
	return start
}

// takePortRun is m takePort(c, now+j, 1) calls, j = 0..m-1, in one step:
// the first waits start-now for the port, and every later one finds it
// freed the cycle it asks, so it waits as long. It returns the first
// grant's start.
func (s *System) takePortRun(c int, now, m uint64) uint64 {
	start := max(now, s.port[c])
	if start > now {
		s.portConflicts[c] += m
		s.portWait[c] += m * (start - now)
	}
	s.portGrants[c] += m
	s.port[c] = start + m
	s.portBusy[c] += m
	return start
}

// PortBusy returns cache c's accumulated port occupancy in cycles.
func (s *System) PortBusy(c int) uint64 { return s.portBusy[c] }

// PortStats returns cache c's port telemetry for the observability layer.
func (s *System) PortStats(c int) obs.ResourceStats {
	return obs.ResourceStats{
		Kind:       "cacheport",
		ID:         c,
		Busy:       s.portBusy[c],
		Grants:     s.portGrants[c],
		Conflicts:  s.portConflicts[c],
		WaitCycles: s.portWait[c],
	}
}
