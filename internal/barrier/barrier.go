// Package barrier models the Cyclops fast inter-thread hardware barrier
// (Section 2.3): an 8-bit special purpose register per thread, wired-OR
// across the chip. Each thread writes its own SPR and reads back the OR of
// all threads' SPRs. Two bits serve each barrier — one holds the state of
// the current barrier cycle, the other the state of the next — so the 8-bit
// register provides 4 independent barriers.
//
// Protocol, as the paper describes it: participating threads initially set
// their current-cycle bit to 1. To enter the barrier a thread atomically
// writes 0 to the current bit (removing its contribution) and 1 to the next
// bit (initialising the next cycle), then spins reading its own register
// until the OR'd current bit drops to 0 — which happens exactly when every
// participant has entered. The two bits swap roles after each use. Because
// each thread spin-waits on its own register there is no contention for any
// other chip resource.
package barrier

import "math/bits"

// Wired is the chip-wide wired-OR of the per-thread 8-bit barrier SPRs.
type Wired struct {
	spr []uint8
	// counts[b] is the number of threads currently driving bit b.
	counts [8]int
	// or is the OR'd register: bit b is set exactly when counts[b] > 0.
	or uint8
}

// NewWired builds the barrier network for nThreads thread units.
func NewWired(nThreads int) *Wired {
	return &Wired{spr: make([]uint8, nThreads)}
}

// Write sets thread tid's contribution to the OR, updating the OR'd
// register as each bit's driver count crosses zero.
func (w *Wired) Write(tid int, v uint8) {
	old := w.spr[tid]
	w.spr[tid] = v
	for b := 0; b < 8; b++ {
		mask := uint8(1) << b
		switch {
		case old&mask != 0 && v&mask == 0:
			if w.counts[b]--; w.counts[b] == 0 {
				w.or &^= mask
			}
		case old&mask == 0 && v&mask != 0:
			w.counts[b]++
			w.or |= mask
		}
	}
}

// Preview returns the OR'd register that Write(tid, v) would produce,
// without writing: the bits v starts driving are set, and a bit it stops
// driving clears when tid was its only driver.
func (w *Wired) Preview(tid int, v uint8) uint8 {
	old := w.spr[tid]
	or := w.or | v&^old
	for drop := old &^ v; drop != 0; drop &= drop - 1 {
		if b := bits.TrailingZeros8(drop); w.counts[b] == 1 {
			or &^= 1 << b
		}
	}
	return or
}

// Read returns the OR over all threads' contributions. Every thread reads
// the same value; the paper's "reads back its register" phrasing refers to
// this OR'd view.
func (w *Wired) Read() uint8 { return w.or }

// Own returns thread tid's raw contribution (not OR'd) — what the thread
// last wrote, used when composing the next write.
func (w *Wired) Own(tid int) uint8 { return w.spr[tid] }

// CurBit and NextBit return the bit masks of barrier k (0..3) for a given
// phase parity. Roles interchange after each use: in even phases the lower
// bit of the pair is "current", in odd phases the upper bit.
func CurBit(k int, phase uint) uint8 {
	if phase%2 == 0 {
		return 1 << (2 * k)
	}
	return 1 << (2*k + 1)
}

// NextBit is the mask of barrier k's next-cycle bit for a phase parity.
func NextBit(k int, phase uint) uint8 {
	return CurBit(k, phase+1)
}

// Participant tracks one thread's position in the barrier protocol and
// produces the SPR values the thread must write. It exists so the
// instruction-level simulator's kernel, the direct-execution runtime and
// the tests all agree on the exact bit protocol.
type Participant struct {
	k     int
	phase uint
}

// NewParticipant prepares a thread to use barrier k. The returned initial
// value (current bit set) must be written to the thread's SPR before any
// participant enters the barrier.
func NewParticipant(k int) (*Participant, uint8) {
	return &Participant{k: k}, CurBit(k, 0)
}

// EnterValue returns the SPR value to write on entering the barrier this
// phase: current bit cleared, next bit set (other barriers' bits in own
// are preserved).
func (p *Participant) EnterValue(own uint8) uint8 {
	return own&^CurBit(p.k, p.phase) | NextBit(p.k, p.phase)
}

// Released reports whether the OR'd value indicates the current phase's
// barrier has completed (everyone entered).
func (p *Participant) Released(or uint8) bool {
	return or&CurBit(p.k, p.phase) == 0
}

// Advance moves the participant to the next phase after a release.
func (p *Participant) Advance() { p.phase++ }

// Phase returns the number of completed barrier cycles.
func (p *Participant) Phase() uint { return p.phase }

// Reset clears every thread's contribution, and so the OR'd register: the
// network reads as NewWired's.
func (w *Wired) Reset() {
	clear(w.spr)
	w.counts = [8]int{}
	w.or = 0
}
