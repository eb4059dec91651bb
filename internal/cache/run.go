package cache

import "cyclops/internal/arch"

// This file is the run core: the memory-system side of the direct-execution
// runtime's bulk operations (perf.T.LoadBlock and friends). A run is a
// chunk of accesses one thread issues on consecutive cycles while it holds
// the globally minimal time, so nothing else touches the memory system
// between them. The core times the whole chunk in one flat loop that leaves
// the System exactly as the same accesses made one at a time through Load
// or Store would, and reports one RunSummary that the thread's ledger books
// with one call (timing.Ledger.SettleRun). Per *line* it resolves the
// interest group, probes the tag and, for stores, finds the DRAM bank; the
// access that places the line books its port cycle, LRU stamp, hit/miss and
// outcome counts and write-combining bytes as Load or Store would. The
// accesses after it that stay in the line (the rest of the line) are
// booked in one step: their port, tag and outcome books are a multiple of
// one access's, and only a store's bank is still stepped per access. The
// Table 2 arithmetic — outcome, later, fill, Wait.Split — is shared with
// Load and Store, so it exists once.

// Penalty is the issue policy's switch penalty per trigger that can fire
// inside a run (timing.PolicyTable's OnMiss and OnMem; zero: the trigger
// does not switch). A penalty delays the thread's next issue, so the run
// core has to know it to time the accesses after it.
type Penalty struct {
	Miss, Mem uint64
}

// RunSummary is what a run reports: the sums, over its accesses, of
// everything timing.Ledger.SettleAccess and ObserveAccess book for one.
type RunSummary struct {
	// N is the number of accesses in the run.
	N int
	// Next is the cycle the thread issues its next instruction.
	Next uint64
	// Done is the latest Done of any access (the loaded values' token).
	Done uint64
	// Wait sums the accesses' wait attribution.
	Wait Wait
	// PortStall and BankStall are the cycles the thread was blocked
	// behind the write path, each access's split by Wait.Split.
	PortStall, BankStall uint64
	// MissSwitches and MemSwitches count the switch triggers that fired:
	// load misses under a Miss penalty, backpressured stores under a Mem
	// penalty.
	MissSwitches, MemSwitches uint64
}

// LoadRun times n loads of size bytes at ea, ea+stride, ... issued from
// cycle now, one per cycle, by a thread homed on quad own.
func (s *System) LoadRun(now uint64, ea uint32, n, size, stride, own int, pen Penalty) RunSummary {
	return s.loadRun(now, nil, ea, uint32(stride), n, own, pen)
}

// LoadGather is LoadRun over arbitrary effective addresses.
func (s *System) LoadGather(now uint64, eas []uint32, size, own int, pen Penalty) RunSummary {
	return s.loadRun(now, eas, 0, 0, len(eas), own, pen)
}

// StoreRun times n write-through stores of size bytes at ea, ea+stride, ...
// issued from cycle now by a thread homed on quad own.
func (s *System) StoreRun(now uint64, ea uint32, n, size, stride, own int, pen Penalty) RunSummary {
	return s.storeRun(now, nil, ea, uint32(stride), n, size, own, pen)
}

// StoreScatter is StoreRun over arbitrary effective addresses.
func (s *System) StoreScatter(now uint64, eas []uint32, size, own int, pen Penalty) RunSummary {
	return s.storeRun(now, eas, 0, 0, len(eas), size, own, pen)
}

// loadRun is the load loop: the k-th address is eas[k], or ea+k*stride
// when eas is nil.
func (s *System) loadRun(now uint64, eas []uint32, ea, stride uint32, n, own int, pen Penalty) RunSummary {
	r := RunSummary{N: n}
	// The line cursor: the line (effective address >> lineShift, so the
	// interest group is part of it) whose serving cache c and tag slot are
	// known. Only this thread touches the System during the run, so the
	// slot stays valid until the run leaves the line; -1 is a line not in
	// the cache, which the first access installs.
	var (
		line   uint32
		inLine bool
		c      int
		d      *DCache
		slot   int
		local  bool
		hitW   Where
		hitLat uint64
		hitHop uint64
	)
	for k := 0; k < n; k++ {
		addr := ea
		if eas != nil {
			addr = eas[k]
		} else {
			ea += stride
		}
		if l := addr >> s.lineShift; !inLine || l != line {
			line, inLine = l, true
			c = s.resolve(addr, own)
			d = s.Caches[c]
			local = c == own
			slot = d.probe(arch.Phys(addr))
			hitW, hitLat, hitHop = s.outcome(true, local)
		}
		start := s.takePort(c, now, 1)
		r.Wait.Port += start - now
		now++
		var done uint64
		if slot >= 0 {
			s.Counts[hitW]++
			var fill uint64
			done, fill = later(start+hitLat, d.touch(slot))
			r.Wait.Fill += fill
			r.Wait.Hop += hitHop
		} else {
			d.Misses++
			phys := arch.Phys(addr)
			var queue uint64
			slot, queue = s.fill(c, start, phys, s.Mem.BankFor(phys))
			w, lat, hop := s.outcome(false, local)
			s.Counts[w]++
			done = start + lat + queue
			r.Wait.Bank += queue
			r.Wait.Hop += hop
			if pen.Miss != 0 {
				r.MissSwitches++
				now += pen.Miss
			}
		}
		r.Done = max(r.Done, done)

		// The rest of the line: the m accesses after this one that stay
		// in its line all hit slot, on consecutive cycles from now, and
		// none can fire a penalty. Each waits as long for the port as the
		// first of them (each frees it the cycle the next one asks), so
		// their books are m times one hit's, except the fill wait, which
		// shrinks by one a cycle until the line is in.
		m := s.lineRest(eas, k, n, addr, stride, 0, ^uint32(0))
		if m == 0 {
			continue
		}
		mm := uint64(m)
		s0 := s.takePortRun(c, now, mm)
		ready := d.touchRun(slot, mm)
		s.Counts[hitW] += mm
		r.Wait.Port += mm * (s0 - now)
		r.Wait.Hop += mm * hitHop
		r.Wait.Fill += fillRun(s0+hitLat, ready, mm)
		r.Done = max(r.Done, s0+mm-1+hitLat, ready)
		now += mm
		k += m
		ea += uint32(m) * stride
	}
	r.Next = now
	return r
}

// lineRest counts the accesses after the k-th, at addr, whose effective
// addresses stay in addr's line and whose physical addresses stay in
// [lo, hi): the accesses a run books in one step after the k-th. A
// strided run's count is closed-form (a stride of a line or more, or a
// negative one, leaves the line at once); a gather's is the length of the
// prefix of eas that qualifies.
func (s *System) lineRest(eas []uint32, k, n int, addr, stride, lo, hi uint32) int {
	m := n - k - 1
	if eas != nil {
		line := addr >> s.lineShift
		for j, a := range eas[k+1:] {
			if p := arch.Phys(a); a>>s.lineShift != line || p < lo || p >= hi {
				return j
			}
		}
		return m
	}
	if stride != 0 {
		mask := uint32(1)<<s.lineShift - 1
		room := min(mask-addr&mask, hi-1-arch.Phys(addr))
		m = min(m, int(room/stride))
	}
	return m
}

// fillRun is the fill wait of m hits unloaded-done at a, a+1, ... on a
// line whose fill completes at ready: later's wait summed, an arithmetic
// series over the hits that finish before ready.
func fillRun(a, ready, m uint64) uint64 {
	if ready <= a {
		return 0
	}
	d := ready - a
	p := min(m, d)
	return p*d - p*(p-1)/2
}

// outOfRange is the bank cursor's key for every address beyond working
// memory: BankFor times them all on one bank.
const outOfRange = ^uint32(0)

// storeRun is the store loop, addressed like loadRun.
func (s *System) storeRun(now uint64, eas []uint32, ea, stride uint32, n, size, own int, pen Penalty) RunSummary {
	r := RunSummary{N: n}
	// The line cursor as in loadRun (stores never install, so a line
	// that is absent stays absent), and a bank cursor: the bank depends
	// on the interleave unit and on whether the address is in working
	// memory at all.
	var (
		line   uint32
		inLine bool
		c      int
		d      *DCache
		slot   int
		unit   uint32
		pb     = -1
	)
	shift, limit := s.Cfg.MemInterleaveShift, s.Mem.Size()
	for k := 0; k < n; k++ {
		addr := ea
		if eas != nil {
			addr = eas[k]
		} else {
			ea += stride
		}
		phys := arch.Phys(addr)
		if l := addr >> s.lineShift; !inLine || l != line {
			line, inLine = l, true
			c = s.resolve(addr, own)
			d = s.Caches[c]
			slot = d.probe(phys)
		}
		u := phys >> shift
		if phys >= limit {
			u = outOfRange
		}
		if pb < 0 || u != unit {
			unit, pb = u, s.Mem.BankFor(phys)
		}
		start := s.takePort(c, now, 1)
		if slot >= 0 {
			d.touch(slot)
		} else {
			d.Misses++
		}
		done, bank := later(start+1, s.Mem.WriteBank(pb, start, size))
		s.Counts[StoreThrough]++
		w := Wait{Port: start - now, Bank: bank}
		r.Wait.Port += w.Port
		r.Wait.Bank += w.Bank
		r.Done = max(r.Done, done)
		now++
		if done > now {
			port, bank := w.Split(done - now)
			r.PortStall += port
			r.BankStall += bank
			now = done
			if pen.Mem != 0 {
				r.MemSwitches++
				now += pen.Mem
			}
		}

		// The rest of the line: the m stores after this one that stay in
		// its line, its interleave unit and working memory. This store
		// released the thread no earlier than the cycle after its port
		// cycle, and so does each of them, so each finds the port free
		// at its own issue cycle and only the bank can hold it. The bank
		// is stepped store by store, a held store booked as above; the
		// port, tag and outcome counts are booked once for all m.
		if u == outOfRange {
			continue
		}
		m := s.lineRest(eas, k, n, addr, stride, u<<shift, min(limit, (u+1)<<shift))
		if m == 0 {
			continue
		}
		for j := 0; j < m; j++ {
			start = now
			admit := s.Mem.WriteBank(pb, start, size)
			now++
			done = max(now, admit)
			r.Done = max(r.Done, done)
			if admit > now {
				held := admit - now
				r.Wait.Bank += held
				r.BankStall += held
				now = admit
				if pen.Mem != 0 {
					r.MemSwitches++
					now += pen.Mem
				}
			}
		}
		// m grants of one cycle, none of which waited, the last at start:
		// the port books of m back-to-back grants ending there.
		mm := uint64(m)
		s.takePortRun(c, start+1-mm, mm)
		if slot >= 0 {
			d.touchRun(slot, mm)
		} else {
			d.Misses += mm
		}
		s.Counts[StoreThrough] += mm
		k += m
		ea += uint32(m) * stride
	}
	r.Next = now
	return r
}

// resolve picks the serving cache for an effective address accessed by a
// thread homed on ownCache, skipping disabled quads.
func (s *System) resolve(ea uint32, ownCache int) int {
	c := arch.CacheFor(ea, ownCache, len(s.Caches), s.lineShift)
	for s.disabled[c] {
		c = (c + 1) % len(s.Caches)
	}
	return c
}

// probe returns the tag slot (set*assoc+way) holding the line containing
// addr, or -1 when no cached way does. It changes nothing: Lookup is probe
// plus touch or a miss count, and the run core probes once per line and
// touches once per access.
func (d *DCache) probe(addr uint32) int {
	line := addr>>d.lineShift + 1
	base := int((line-1)&d.setMask) * d.assoc
	for i := base + d.scratchWays; i < base+d.assoc; i++ {
		if d.tags[i] == line {
			return i
		}
	}
	return -1
}

// touch books a hit on tag slot i — a fresh LRU stamp and the hit counter —
// and returns the cycle the line's fill completes.
func (d *DCache) touch(i int) uint64 {
	d.stamp++
	d.lru[i] = d.stamp
	d.Hits++
	return d.readyAt[i]
}

// touchRun is m touches of tag slot i in a row: the slot ends with the
// last stamp, the hit counter gains m, and it returns the line's fill
// completion.
func (d *DCache) touchRun(i int, m uint64) uint64 {
	d.stamp += uint32(m)
	d.lru[i] = d.stamp
	d.Hits += m
	return d.readyAt[i]
}

// outcome is Table 2's load classification: the class of a load that hit
// or missed in its own or a remote cache, its unloaded latency beyond the
// port cycle, and the cache-switch hop inside that latency.
func (s *System) outcome(hit, local bool) (w Where, lat, hop uint64) {
	l := &s.Cfg.Latencies
	switch {
	case hit && local:
		return LocalHit, uint64(l.LocalHitLatency), 0
	case hit:
		return RemoteHit, uint64(l.RemoteHitLatency), uint64(l.RemoteHitLatency - l.LocalHitLatency)
	case local:
		return LocalMiss, uint64(l.LocalMissLatency), 0
	}
	return RemoteMiss, uint64(l.RemoteMissLatency), uint64(l.RemoteMissLatency - l.LocalMissLatency)
}

// later is the completion of an access that would finish at done but is
// held until at (a hit on a line still being filled, a store waiting for
// its bank's write buffer): the later of the two, and the wait.
func later(done, at uint64) (uint64, uint64) {
	if at > done {
		return at, at - done
	}
	return done, 0
}

// fill is a load miss's memory side, booked at request time: the line's
// burst from bank pb, its install into cache c, and the transfer's port
// occupancy (a reserved slot, so the single next-free port cursor never
// travels backwards). It returns the line's tag slot and the bank queueing
// delay, which adds to the unloaded Table 2 miss latency.
func (s *System) fill(c int, start uint64, phys uint32, pb int) (slot int, queue uint64) {
	fillDone := s.Mem.FillBank(pb, start)
	slot = s.Caches[c].Install(phys, fillDone)
	s.takePort(c, start+1, s.fillPortCycles)
	return slot, fillDone - start - uint64(s.Cfg.MemBurstCycles)
}

// Split is Table 2's rule for n cycles a thread is blocked behind the write
// path: the access's measured port-queue share first, to the cacheport
// stall reason, the remainder to bankconflict (DRAM burst queueing). It is
// the only implementation in the module: timing.Ledger.ChargeMemStall and
// the run core both split through it.
func (w Wait) Split(n uint64) (port, bank uint64) {
	port = min(w.Port, n)
	return port, n - port
}
