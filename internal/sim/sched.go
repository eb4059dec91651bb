package sim

import "math/bits"

// wheelSlots is the timing wheel's horizon in cycles, a power of two. A
// wake-up further ahead than this takes the overflow list, which is
// correct at any distance but costs a scan per migration, so the horizon
// sits past what the shipped workloads produce. Measured as nextAt minus
// the cycle of the last batch: over one op each of the benchmark's
// alu_126t, triad_local and triad_ooc (3.45 M pushes) 69-75% of wake-ups
// were 1 cycle ahead, 99.9% under 128 and the furthest 382 — Table 2's
// latencies plus bank and port queueing; over every experiment at the
// small scale (110.7 M pushes) 99.96% were under 256 and 2117 (0.002%)
// reached 512, the furthest 1723. 512 slots of two words are 8 KB a chip.
const (
	wheelSlots = 512
	wheelMask  = wheelSlots - 1
)

// noEvent is minAt on an empty queue: later than any cycle, so the
// engine's "is another unit due by then?" test needs no emptiness check.
const noEvent = ^uint64(0)

// SchedStats counts the block engine scheduler's host-side activity. Zero
// on the legacy engine, which scans its active list instead.
type SchedStats struct {
	Batches  uint64 // cycles at which queued units issued (popBatch calls)
	Units    uint64 // units those batches issued; inline continuation bypasses the queue
	Overflow uint64 // pushes beyond the wheel horizon, onto the overflow list
	Rebuilds uint64 // compactions, each re-filing the queue under new positions

	// Spin parking (park.go).
	Parks          uint64 // units that left the queue at a spin loop's fixed point
	Wakes          uint64 // replays of every parked unit: a barrier or text write, a trap, a tick, the run's end
	ParkedAttempts uint64 // issue attempts booked by replay rather than issued
	PhantomCycles  uint64 // scheduler iterations at cycles where only parked units were due
}

// eventQueue holds the running thread units by next issue cycle (nextAt)
// so the block engine jumps straight to the earliest pending cycle and
// takes everything due there at once. It is a timing wheel: slot
// nextAt&wheelMask is a bitmap over *active-list positions* (TU.pos), not
// unit IDs, because the legacy engine breaks same-cycle ties by position
// rotated by a counter — with positions as bit indices that order is a
// rotated bit scan and nothing is ever sorted. The price is that
// compaction, which renumbers positions, must rebuild the wheel.
//
// Time is monotone: every push is at or after the cycle of the last
// popBatch (base), so the wheel holds exactly the cycles in
// [base, base+wheelSlots) and the overflow list only later ones.
type eventQueue struct {
	words   int                     // bitmap words per slot: ceil(cfg.Threads/64)
	slots   []uint64                // wheelSlots bitmaps of words words each
	summary [wheelSlots / 64]uint64 // bit s set: slot s is non-empty
	base    uint64                  // cycle of the last popBatch
	minAt   uint64                  // earliest queued nextAt; noEvent when empty
	over    []*TU                   // units due at base+wheelSlots or later, unsorted
	overMin uint64                  // earliest nextAt on over; noEvent when empty
	stats   SchedStats
}

func newEventQueue(threads int) eventQueue {
	words := (threads + 63) / 64
	return eventQueue{words: words, slots: make([]uint64, wheelSlots*words), minAt: noEvent, overMin: noEvent}
}

// push queues a running unit at tu.nextAt under its current position.
func (q *eventQueue) push(tu *TU) {
	q.minAt = min(q.minAt, tu.nextAt)
	if !q.file(tu) {
		q.stats.Overflow++
	}
}

// file sets tu's bit in the slot of its cycle, or appends it to the
// overflow list when that cycle is beyond the horizon (reporting false).
func (q *eventQueue) file(tu *TU) bool {
	if tu.nextAt-q.base >= wheelSlots {
		q.over = append(q.over, tu)
		q.overMin = min(q.overMin, tu.nextAt)
		return false
	}
	s := int(tu.nextAt & wheelMask)
	q.slots[s*q.words+tu.pos>>6] |= 1 << (tu.pos & 63)
	q.summary[s>>6] |= 1 << (s & 63)
	return true
}

// popBatch removes every unit due at minAt (the queue must be non-empty)
// and returns them, in batch's storage, in the legacy engine's visiting
// order over the active list: positions r, r+1, ... n-1, then 0 ... r-1.
// A unit pushed for this same cycle afterwards (a thread started
// mid-batch) forms its own batch, as the legacy loop's captured length
// does.
func (q *eventQueue) popBatch(batch, active []*TU, r int) []*TU {
	batch = batch[:0]
	c := q.minAt
	q.base = c
	if q.overMin-c < wheelSlots {
		// The advancing horizon reached the overflow list: re-file it.
		over := q.over
		q.over, q.overMin = over[:0], noEvent
		for _, tu := range over {
			q.file(tu)
		}
	}
	s := int(c & wheelMask)
	slot := q.slots[s*q.words : (s+1)*q.words]
	// Word r>>6 is visited twice: first its bits >= r, last its bits < r.
	for i := 0; i <= len(slot); i++ {
		w := (r>>6 + i) % len(slot)
		b := slot[w]
		if i == 0 {
			b &= ^uint64(0) << (r & 63)
		} else if i == len(slot) {
			b &= 1<<(r&63) - 1
		}
		for ; b != 0; b &= b - 1 {
			batch = append(batch, active[w<<6+bits.TrailingZeros64(b)])
		}
	}
	clear(slot)
	q.summary[s>>6] &^= 1 << (s & 63)
	q.minAt = q.next()
	q.stats.Batches++
	q.stats.Units += uint64(len(batch))
	return batch
}

// next returns the earliest queued cycle: that of the first occupied slot
// in ring order from base, else the overflow minimum (noEvent when both
// are empty).
func (q *eventQueue) next() uint64 {
	s := int(q.base & wheelMask)
	for i := 0; i <= len(q.summary); i++ {
		w := (s>>6 + i) % len(q.summary)
		b := q.summary[w]
		if i == 0 {
			b &= ^uint64(0) << (s & 63)
		} else if i == len(q.summary) {
			b &= 1<<(s&63) - 1
		}
		if b != 0 {
			return q.base + uint64((w<<6+bits.TrailingZeros64(b)-s)&wheelMask)
		}
	}
	return q.overMin
}

// rebuild re-files every queued unit after compaction renumbered the
// active list (all of active is running, hence queued unless parked).
func (q *eventQueue) rebuild(active []*TU) {
	clear(q.slots)
	clear(q.summary[:])
	q.over, q.overMin = q.over[:0], noEvent
	for _, tu := range active {
		if !tu.parked {
			q.file(tu)
		}
	}
	q.minAt = q.next()
	q.stats.Rebuilds++
}
