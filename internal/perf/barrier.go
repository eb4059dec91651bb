package perf

import (
	"cyclops/internal/arch"
	"cyclops/internal/cache"
	"cyclops/internal/obs"
)

// HWBarrier is the fast wired-OR hardware barrier of Section 2.3 as seen
// by the timing runtime: entry is a single SPR write, waiting threads
// spin on their own register at full speed (run cycles, no shared-resource
// contention), and release propagates one cycle after the last arrival.
type HWBarrier struct {
	n        int
	count    int
	maxEnter uint64
	parked   []*T
}

// NewHWBarrier builds a barrier for n participants.
func NewHWBarrier(n int) *HWBarrier { return &HWBarrier{n: n} }

// HWBarrier enters b and returns when every participant has entered.
// The wait is charged as run cycles: the thread busy-spins reading its own
// SPR, which contends for nothing (the paper's "all threads run at full
// speed").
func (t *T) HWBarrier(b *HWBarrier) {
	t.acquire()
	t.ChargeRun(1) // the atomic SPR write: clear current bit, set next bit
	t.now++
	enter := t.now
	b.count++
	if enter > b.maxEnter {
		b.maxEnter = enter
	}
	if b.count < b.n {
		b.parked = append(b.parked, t)
		t.block()
		// The releasing thread advanced t.now to the release cycle;
		// the interval was spent spinning on the SPR.
		t.ChargeRun(t.now - enter)
	} else {
		// Last arrival: the OR's current bit drops one cycle later.
		release := b.maxEnter + 1
		for _, p := range b.parked {
			p.now = release
			t.wakes = append(t.wakes, p)
		}
		t.ChargeRun(release - enter)
		t.now = release
		b.count = 0
		b.maxEnter = 0
		b.parked = b.parked[:0] // the wakes hold the pointers now
	}
	t.Work(3) // spin-exit branch and current/next mask swap
}

// flagStamp records a software-barrier flag value: the phase written and
// the virtual time the store became visible.
type flagStamp struct {
	phase uint32
	at    uint64
}

// SWBarrier is the software baseline the paper measures against
// (Section 3.3): a tree over memory. On entering, a thread notifies its
// parent through a store and then spins on a memory location that its
// parent writes when all threads have arrived. Every notify and every
// poll is a timed memory access through the shared cache system, so the
// contention the paper attributes to software barriers emerges naturally.
type SWBarrier struct {
	m        *Machine
	n, arity int

	arriveEA  []uint32
	releaseEA []uint32
	arrive    []flagStamp
	release   []flagStamp
	phase     []uint32
}

// NewSWBarrier builds a tree barrier for n participants with the given
// fan-in (4 is typical; 2 gives the deepest tree). Flags are 64-byte
// padded and placed in the chip-wide shared interest group, the system
// default; it fails, as Alloc does, when they do not fit.
func NewSWBarrier(m *Machine, n, arity int) (*SWBarrier, error) {
	if arity < 2 {
		arity = 2
	}
	b := &SWBarrier{
		m:         m,
		n:         n,
		arity:     arity,
		arriveEA:  make([]uint32, n),
		releaseEA: make([]uint32, n),
		arrive:    make([]flagStamp, n),
		release:   make([]flagStamp, n),
		phase:     make([]uint32, n),
	}
	g := arch.InterestGroup{Mode: arch.GroupAll}
	for i := 0; i < n; i++ {
		var err error
		if b.arriveEA[i], err = m.Alloc(64, g); err != nil {
			return nil, err
		}
		if b.releaseEA[i], err = m.Alloc(64, g); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// children returns the tree children of node i as the index range
// first..last; it is empty (first > last) for a leaf.
func (b *SWBarrier) children(i int) (first, last int) {
	return i*b.arity + 1, min(i*b.arity+b.arity, b.n-1)
}

// spinFlag polls a flag location until it carries phase want, charging a
// timed load plus branch per poll. A poll is a run of one with no switch
// penalty: a spinning thread never switches out on the flag's miss. The
// flag state is examined at each poll's issue time, which the engine
// guarantees is globally consistent.
func (t *T) spinFlag(ea uint32, flag *flagStamp, want uint32) {
	for {
		issue := t.now
		done := t.bulk(1, func(int, int) cache.RunSummary {
			return t.m.Chip.Data.LoadRun(t.now, ea, 1, 4, 0, t.Quad, cache.Penalty{})
		})
		// Nothing has run since the poll's scheduling point.
		seen := flag.phase >= want && flag.at <= issue
		// The conditional branch consumes the loaded value. The wait is
		// time spent inside the software barrier, so it is charged as
		// barrier stall rather than a generic load-use dependence.
		if done > t.now {
			t.Charge(obs.BarrierStall, done-t.now)
			t.now = done
		}
		t.Work(2)
		if seen {
			return
		}
	}
}

// setFlag stores the phase into a flag location.
func (t *T) setFlag(ea uint32, flag *flagStamp, phase uint32) {
	t.StoreBlock(ea, 1, 4, 0)
	flag.phase = phase
	flag.at = t.now
}

// SWBarrier enters the tree barrier as participant index (0..n-1; index 0
// is the root).
func (t *T) SWBarrier(b *SWBarrier, index int) {
	ph := b.phase[index] + 1
	b.phase[index] = ph

	// Gather: wait for the subtree, then notify the parent.
	first, last := b.children(index)
	for c := first; c <= last; c++ {
		t.spinFlag(b.arriveEA[c], &b.arrive[c], ph)
	}
	if index != 0 {
		t.setFlag(b.arriveEA[index], &b.arrive[index], ph)
		t.spinFlag(b.releaseEA[index], &b.release[index], ph)
	}
	// Scatter: release the children.
	for c := first; c <= last; c++ {
		t.setFlag(b.releaseEA[c], &b.release[c], ph)
	}
}
