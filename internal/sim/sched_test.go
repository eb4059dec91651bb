package sim

import (
	"math/rand"
	"sort"
	"testing"
)

// queueModel drives an eventQueue the way runBlock, Start and compact do,
// beside an oracle that keeps the queued units in a plain slice and
// orders a batch by sorting on (nextAt, (pos-r) mod n).
type queueModel struct {
	t      *testing.T
	q      eventQueue
	active []*TU // every unit alive, by position
	queued []*TU // the oracle's contents, in no order
	now    uint64
}

func (mq *queueModel) modelMin() uint64 {
	at := noEvent
	for _, tu := range mq.queued {
		at = min(at, tu.nextAt)
	}
	return at
}

func (mq *queueModel) checkMin() {
	mq.t.Helper()
	if want := mq.modelMin(); mq.q.minAt != want {
		mq.t.Fatalf("minAt = %d, oracle %d (now %d)", mq.q.minAt, want, mq.now)
	}
}

// start appends a fresh unit to the active list and queues it delta
// cycles ahead, as Machine.Start does (delta 0: a mid-batch start).
func (mq *queueModel) start(delta uint64) *TU {
	tu := &TU{ID: len(mq.active) + 1000, pos: len(mq.active), nextAt: mq.now + delta}
	mq.active = append(mq.active, tu)
	mq.push(tu)
	return tu
}

func (mq *queueModel) push(tu *TU) {
	mq.q.push(tu)
	mq.queued = append(mq.queued, tu)
	mq.checkMin()
}

// pop takes the earliest batch under rotation r and checks it, unit for
// unit, against the oracle's sort.
func (mq *queueModel) pop(r int) []*TU {
	mq.t.Helper()
	at, n := mq.modelMin(), len(mq.active)
	var want, rest []*TU
	for _, tu := range mq.queued {
		if tu.nextAt == at {
			want = append(want, tu)
		} else {
			rest = append(rest, tu)
		}
	}
	sort.Slice(want, func(i, j int) bool { return (want[i].pos-r+n)%n < (want[j].pos-r+n)%n })
	got := mq.q.popBatch(nil, mq.active, r)
	if len(got) != len(want) {
		mq.t.Fatalf("batch at %d (r=%d, n=%d): %d units, oracle %d", at, r, n, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			mq.t.Fatalf("batch at %d (r=%d, n=%d): slot %d is pos %d, oracle pos %d", at, r, n, i, got[i].pos, want[i].pos)
		}
	}
	mq.queued, mq.now = rest, at
	mq.checkMin()
	return got
}

// compact drops every unit that is no longer queued (popped and not
// pushed back: halted) and renumbers the survivors, as Machine.compact
// does before it calls rebuild.
func (mq *queueModel) compact() {
	queued := map[*TU]bool{}
	for _, tu := range mq.queued {
		queued[tu] = true
	}
	live := mq.active[:0]
	for _, tu := range mq.active {
		if queued[tu] {
			tu.pos = len(live)
			live = append(live, tu)
		}
	}
	mq.active = live
	mq.q.rebuild(live)
	mq.checkMin()
}

// TestEventQueueEdges scripts the wheel's corner cases one at a time.
func TestEventQueueEdges(t *testing.T) {
	mq := &queueModel{t: t, q: newEventQueue(16)}
	// Walk to just short of the slot-index wrap.
	mq.start(wheelSlots - 3)
	mq.pop(0)
	// Deltas 0, 1, horizon-1 straddle the wrap inside the wheel; horizon
	// and several horizons ahead take the overflow list.
	for _, d := range []uint64{0, 1, 5, wheelSlots - 1, wheelSlots, 3*wheelSlots + 7, 3*wheelSlots + 7} {
		mq.start(d)
	}
	if got := mq.q.stats.Overflow; got != 3 {
		t.Fatalf("overflow pushes = %d, want 3", got)
	}
	mq.pop(3) // delta 0, at the cycle just drained
	mq.pop(1) // delta 1
	// A same-cycle re-insert after the drain forms its own batch.
	tu := mq.start(0)
	if b := mq.pop(0); len(b) != 1 || b[0] != tu {
		t.Fatalf("same-cycle re-insert: got %d units", len(b))
	}
	mq.pop(2) // delta 5, past the wrap
	mq.pop(0) // horizon-1, the far edge of the wheel; the advancing base migrates delta horizon
	mq.pop(0) // delta horizon, now in the wheel
	// Rebuild with only overflow entries left, then pop them: an overflow
	// entry is the queue minimum.
	mq.compact()
	if b := mq.pop(1); len(b) != 2 || len(mq.active) != 2 {
		t.Fatalf("overflow minimum: batch of %d of %d, want 2 of 2", len(b), len(mq.active))
	}
	if mq.q.minAt != noEvent || len(mq.q.over) != 0 {
		t.Fatalf("drained queue: minAt=%d over=%d", mq.q.minAt, len(mq.q.over))
	}
}

// TestEventQueueAgainstModel runs a seeded random schedule of starts,
// batches, re-pushes, halts and compactions against the oracle, at one,
// two and four bitmap words per slot.
func TestEventQueueAgainstModel(t *testing.T) {
	deltas := []uint64{0, 1, 1, 1, 1, 2, 2, 3, 7, 31, 64, 200, wheelSlots - 1, wheelSlots, wheelSlots + 1, 2*wheelSlots + 9, 9 * wheelSlots}
	for _, threads := range []int{4, 126, 256} {
		rng := rand.New(rand.NewSource(int64(threads)))
		mq := &queueModel{t: t, q: newEventQueue(threads)}
		var pops, units uint64
		for step := 0; step < 4000; step++ {
			if len(mq.active) < threads && (len(mq.queued) == 0 || rng.Intn(4) == 0) {
				mq.start(deltas[rng.Intn(len(deltas))])
				continue
			}
			batch := mq.pop(rng.Intn(len(mq.active)))
			pops++
			units += uint64(len(batch))
			halted := false
			for _, tu := range batch {
				if rng.Intn(12) == 0 {
					halted = true
					continue
				}
				// Survivors wake strictly later, as every issue attempt does.
				tu.nextAt = mq.now + max(1, deltas[rng.Intn(len(deltas))])
				mq.push(tu)
			}
			if halted {
				mq.compact()
			}
		}
		st := mq.q.stats
		if st.Batches != pops || st.Units != units {
			t.Errorf("threads=%d: stats %+v, want %d batches of %d units", threads, st, pops, units)
		}
		if st.Overflow == 0 || st.Rebuilds == 0 {
			t.Errorf("threads=%d: overflow or rebuild path never ran: %+v", threads, st)
		}
	}
}
