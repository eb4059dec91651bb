package sim

import (
	"fmt"
	"math/bits"
	"slices"

	"cyclops/internal/isa"
	"cyclops/internal/obs"
	"cyclops/internal/timing"
)

// Spin parking: how the block engine treats a thread unit waiting at the
// hardware barrier. The wait is a private loop — mfspr of the barrier SPR,
// ALU ops on the value, a conditional branch back — and while the barrier
// register does not change, each iteration repeats the one before it,
// shifted in time. Issuing those attempts one at a time through the
// scheduler is host work that changes nothing, so a unit whose loop has
// reached that fixed point leaves the timing wheel (it is parked) and is
// replayed exactly when something it could observe changes.
//
//   - Spin loops are found at compile time (spinShape): a block whose last
//     op is a conditional branch back into the block, over a loop of
//     compileALU bodies and mfspr of the barrier SPR with at least one such
//     mfspr. An iteration reads nothing but its own registers and the
//     barrier byte, and uses no shared resource.
//   - The fixed point (tryPark). At a head attempt the unit is copied and
//     one iteration runs on the copy. If the copy comes back to the head
//     with the loop's registers holding the same values and the same
//     readiness relative to the head, and the prefetch buffer holds the
//     whole loop (so no refill can happen), every later iteration is this
//     one shifted by its period P. The unit records P, the attempt offsets
//     and the per-iteration ledger deltas, and parks instead of issuing.
//   - Phantom cycles. A parked unit stays on the active list, keeping its
//     position and counting in n, but leaves the wheel. The legacy
//     scheduler runs one iteration (rr++, the cycle-limit check, a timeline
//     tick) at every cycle where any unit is due, so the cycles where only
//     parked units are due are booked too: one residue mask per period
//     answers "is a parked unit due at c" and "how many such cycles lie in
//     [a, b)" in O(1). A lone unit's inline continuation books the phantom
//     cycles in its gap itself.
//   - Wake. Every parked unit is replayed to the cycle c of the event and
//     returned to the scheduler when the barrier register is about to
//     change (barrier.Wired.Preview tells before the write), when the code
//     generation moves (a store or DMA into text), and at each exit: a
//     trap, a timeline tick, the cycle limit, a deadlock. Whole iterations
//     are applied as k times the deltas; the partial one is replayed by
//     calling the block's own ops, which still read the old byte. A unit
//     due at c is ordered against the unit whose attempt causes the wake by
//     rotation rank (pos - rr) mod n: ranks before it have issued at c;
//     ranks after it have not, and after a write they join the current
//     batch behind the writer, in rank order.
//   - A unit observed by a Trace buffer or a profiler sampler never parks:
//     each records every attempt, so there is nothing to elide.

const (
	noSpin      = ^uint32(0) // simBlock.spin of a block without a spin loop
	maxSpinOps  = 16         // a longer loop is not a spin loop
	maxSpinRegs = 8          // nor is one naming more registers
	maxSpinAtts = 16         // attempts per iteration a unit may park with
	maxPeriod   = 64         // cycles; a period's residues are the bits of one word
)

// wakeReason names what replayed the parked units.
type wakeReason uint8

const (
	wakeBarrier  wakeReason = iota // a write changing the barrier register
	wakeCode                       // a store or DMA into compiled text
	wakeTrap                       // a trap ends the run
	wakeTick                       // a timeline sample reads every ledger
	wakeLimit                      // the cycle limit ends the run
	wakeDeadlock                   // nothing is left to change the register
)

// spinRec is one parked unit's iteration: where and when it parked, the
// attempts' offsets from the head, and what one iteration adds.
type spinRec struct {
	blk          *simBlock
	head         uint64 // cycle of the head attempt the unit is parked at
	period, atts uint32
	// One iteration's ledger deltas (each at most a period), and the ready
	// time of each register it writes (blk.regs[:blk.nw]) relative to its
	// head.
	insts, run, stall, dep, sw uint32
	ready                      [maxSpinRegs]uint8
	offs                       [maxSpinAtts]uint8
}

// spinGroup is the parked units of one period: bit r of due is set when
// some parked unit is due at the cycles c with c mod period == r.
type spinGroup struct {
	period, due uint64
}

// parking is a machine's parking state, allocated by the first unit that
// reaches a spin loop's head. A unit's record is allocated when the unit
// first parks; TU has no room for it (one more word would move it to the
// next allocation size class).
type parking struct {
	recs    []*spinRec // by unit ID
	list    []*TU      // the parked units
	groups  []spinGroup
	byte    uint8 // the barrier register the parked units read
	scratch TU    // the copy tryPark runs an iteration on
}

// spinShape finds the spin loop of code, the block compiled at base: it
// returns the loop's head PC (noSpin when there is none) and the registers
// the loop names, those it writes first (nw of them), then those it only
// reads.
func spinShape(base uint32, code []isa.Inst) (head uint32, regs []uint8, nw int) {
	n := len(code)
	last := code[n-1]
	end := base + 4*uint32(n)
	head = end + uint32(last.Imm)*4
	if isa.Lookup(last.Op).Format != isa.FmtB || head < base || head >= end-4 {
		return noSpin, nil, 0
	}
	loop := code[(head-base)/4:]
	if len(loop) > maxSpinOps || !slices.ContainsFunc(loop, isa.BarrierWait) {
		return noSpin, nil, 0
	}
	var uses, defs isa.RegMask
	for i, in := range loop {
		if i < len(loop)-1 && !isa.BarrierWait(in) && compileALU(0, in, 0) == nil {
			return noSpin, nil, 0
		}
		u, d := isa.RegEffects(in)
		uses, defs = uses|u, defs|d
	}
	regs = append(defs.Regs(), (uses &^ defs).Regs()...)
	if len(regs) > maxSpinRegs {
		return noSpin, nil, 0
	}
	return head, regs, bits.OnesCount64(uint64(defs))
}

// since is ready's distance past cycle c, zero when it is ready by c.
func since(ready, c uint64) uint64 { return max(ready, c) - c }

// tryPark runs one iteration of blk's spin loop on a copy of tu, which is
// about to attempt the loop's head at m.cycle, and parks tu when the copy
// comes back to the head in the state it left (see the file comment). It
// reports whether tu parked.
func (m *Machine) tryPark(tu *TU, blk *simBlock) bool {
	if m.Trace != nil || tu.Samp != nil || blk.end-tu.pib.base > tu.pib.words {
		return false
	}
	if tu.spinSkip > 0 {
		tu.spinSkip--
		return false
	}
	if m.park == nil {
		m.park = &parking{recs: make([]*spinRec, len(m.tus))}
	}
	p := m.park
	s, h := &p.scratch, m.cycle
	*s = *tu
	var offs [maxSpinAtts]uint8
	atts := 0
	for {
		offs[atts] = uint8(s.nextAt - h)
		atts++
		blk.ops[(s.PC-blk.base)>>2](m, s, s.nextAt)
		if s.PC == blk.spin {
			break
		}
		// Out of the loop (the barrier is open), or an iteration too long
		// to record.
		if s.PC-blk.spin >= blk.end-blk.spin || atts == maxSpinAtts || s.nextAt-h >= maxPeriod {
			return tu.spinFail()
		}
	}
	period := s.nextAt - h
	if period > maxPeriod || !sameSpinState(blk, tu, h, s, s.nextAt) {
		return tu.spinFail()
	}
	rec := p.recs[tu.ID]
	if rec == nil {
		rec = new(spinRec)
		p.recs[tu.ID] = rec
	}
	*rec = spinRec{blk: blk, head: h, period: uint32(period), atts: uint32(atts), offs: offs,
		insts: uint32(s.Insts - tu.Insts), run: uint32(s.Run - tu.Run), stall: uint32(s.Stall - tu.Stall),
		dep: uint32(s.Stalls[obs.DepStall] - tu.Stalls[obs.DepStall]), sw: uint32(s.Stalls[obs.SwitchStall] - tu.Stalls[obs.SwitchStall])}
	for i, r := range blk.regs[:blk.nw] {
		rec.ready[i] = uint8(s.ready[r] - h) // written at a cycle < h+period, ready one later
	}
	g := p.group(period)
	for _, off := range rec.offs[:atts] {
		g.due |= 1 << ((h + uint64(off)) % period)
	}
	tu.parked, tu.spinFails = true, 0
	p.list = append(p.list, tu)
	p.byte = m.bar.Read()
	m.parked++
	m.inlineMax = 0
	m.eq.stats.Parks++
	return true
}

// sameSpinState reports whether a at cycle ca and b at cycle cb hold the
// same values in blk's loop registers, each as far from ready.
func sameSpinState(blk *simBlock, a *TU, ca uint64, b *TU, cb uint64) bool {
	for _, r := range blk.regs {
		if a.Regs[r] != b.Regs[r] || since(a.ready[r], ca) != since(b.ready[r], cb) {
			return false
		}
	}
	return true
}

// spinFail backs a unit whose loop is not (yet) at a fixed point off trying
// again: after the k-th failure in a row it skips the next 2^(k-1)-1 heads,
// at most 63. It always reports false, tryPark's answer.
func (tu *TU) spinFail() bool {
	tu.spinFails = min(tu.spinFails+1, 7)
	tu.spinSkip = 1<<(tu.spinFails-1) - 1
	return false
}

// group returns the parked units' group of the given period, adding it.
func (p *parking) group(period uint64) *spinGroup {
	for i := range p.groups {
		if p.groups[i].period == period {
			return &p.groups[i]
		}
	}
	p.groups = append(p.groups, spinGroup{period: period})
	return &p.groups[len(p.groups)-1]
}

// next returns the first cycle at or after c at which the group is due.
func (g spinGroup) next(c uint64) uint64 {
	r := c % g.period
	if ahead := g.due >> r; ahead != 0 {
		return c + uint64(bits.TrailingZeros64(ahead))
	}
	return c - r + g.period + uint64(bits.TrailingZeros64(g.due))
}

// count returns how many cycles in [a, b) the group is due at.
func (g spinGroup) count(a, b uint64) uint64 {
	span := b - a
	n := span / g.period * uint64(bits.OnesCount64(g.due))
	r, rem := a%g.period, span%g.period
	ahead := g.due >> r // residues r, r+1, ... as bits 0, 1, ...
	if r+rem <= g.period {
		return n + uint64(bits.OnesCount64(ahead&(1<<rem-1)))
	}
	return n + uint64(bits.OnesCount64(ahead)+bits.OnesCount64(g.due&(1<<(r+rem-g.period)-1)))
}

// nextDue returns the first cycle at or after c at which a parked unit is
// due.
func (p *parking) nextDue(c uint64) uint64 {
	d := noEvent
	for _, g := range p.groups {
		d = min(d, g.next(c))
	}
	return d
}

// bookPhantoms runs the legacy scheduler's iterations at the cycles in
// [a, b) where only parked units are due: one rr step each.
func (m *Machine) bookPhantoms(a, b uint64) {
	var n uint64
	if p := m.park; len(p.groups) == 1 {
		n = p.groups[0].count(a, b)
	} else {
		for d := p.nextDue(a); d < b; d = p.nextDue(d + 1) {
			n++
		}
	}
	m.rr += int(n)
	m.eq.stats.PhantomCycles += n
}

// skipPhantoms books the scheduler iterations after m.cycle and before
// next, the wheel's minimum, at which only parked units are due, and
// returns the cycle of the next iteration. The run ends there on the cycle
// limit, and at once when the wheel is empty and nothing bounds the run:
// every listed unit is parked, so nothing can ever change the register.
func (m *Machine) skipPhantoms(next uint64) (uint64, error) {
	if next == noEvent && m.limit == noEvent {
		n := m.parked
		m.wake(m.cycle+1, nil, wakeDeadlock)
		return 0, fmt.Errorf("sim: deadlock: cycle %d, %d thread units spinning on the barrier register", m.cycle, n)
	}
	from := m.cycle + 1
	for {
		d := m.park.nextDue(from)
		switch {
		case d >= next:
			return next, nil
		case d > m.limit:
			m.cycle = d
			return 0, m.cycleLimit()
		case m.TL == nil:
			// Through the limit, at most: d <= limit < next here.
			end := min(next-1, m.limit) + 1
			m.bookPhantoms(d, end)
			from = end
		case m.TL.Due(d):
			// The sample reads every ledger: bring the parked units up to
			// d, which makes it a cycle with units in the wheel.
			m.wake(d, nil, wakeTick)
			return d, nil
		default:
			m.bookPhantoms(d, d+1)
			from = d + 1
		}
	}
}

// cycleLimit ends the run at m.cycle, past the limit, with the parked
// units replayed up to it, as the legacy engine leaves them. Both engines
// raise the limit here.
func (m *Machine) cycleLimit() error {
	if m.parked > 0 {
		m.wake(m.cycle, nil, wakeLimit)
	}
	return fmt.Errorf("sim: %w %d exceeded", timing.ErrCycleLimit, m.MaxCycles)
}

// rank is tu's place in the current scheduler iteration's visiting order.
func (m *Machine) rank(tu *TU) int {
	n := m.iterN
	return ((tu.pos-m.rr)%n + n) % n
}

// wake replays every parked unit to cycle c and returns it to the
// scheduler. by is the unit whose attempt at c causes the wake, nil when
// none does and no unit has issued at c (a tick, the limit, a deadlock). A
// unit due at c that by's iteration visited first — every one, when an
// earlier iteration already ran at c — is replayed through c. After a
// barrier or text write the others join the batch behind by, and
// m.eq.minAt drops to c so that by's inline continuation stops for them
// (join restores it).
func (m *Machine) wake(c uint64, by *TU, why wakeReason) {
	p := m.park
	m.eq.stats.Wakes++
	before, after := 0, 0
	for _, tu := range p.list {
		tu.parked = false
		m.replay(tu, c)
		if tu.nextAt == c && by != nil {
			if c == m.repeatAt || m.rank(tu) < m.rank(by) {
				before++
				m.replay(tu, c+1)
			} else {
				after++
				if why <= wakeCode {
					m.joiners = append(m.joiners, tu)
					continue
				}
			}
		}
		m.eq.push(tu)
	}
	if m.onWake != nil {
		m.onWake(why, before, after)
	}
	clear(p.list)
	p.list, p.groups, m.parked = p.list[:0], p.groups[:0], 0
	m.inlineMax = m.limit
	if len(m.joiners) > 0 {
		m.eq.minAt = min(m.eq.minAt, c)
	}
}

// replay brings parked unit tu to its first attempt at or after cycle t:
// whole iterations by their recorded deltas, the rest by its block's ops.
func (m *Machine) replay(tu *TU, t uint64) {
	rec := m.park.recs[tu.ID]
	blk := rec.blk
	period := uint64(rec.period)
	if k := (t - rec.head) / period; k > 0 && tu.nextAt == rec.head {
		tu.Insts += k * uint64(rec.insts)
		tu.Run += k * uint64(rec.run)
		tu.Stall += k * uint64(rec.stall)
		tu.Stalls[obs.DepStall] += k * uint64(rec.dep)
		tu.Stalls[obs.SwitchStall] += k * uint64(rec.sw)
		last := rec.head + (k-1)*period
		for i, r := range blk.regs[:blk.nw] {
			tu.ready[r] = last + uint64(rec.ready[i])
		}
		rec.head += k * period
		tu.nextAt = rec.head
		m.eq.stats.ParkedAttempts += k * uint64(rec.atts)
	}
	for tu.nextAt < t {
		blk.ops[(tu.PC-blk.base)>>2](m, tu, tu.nextAt)
		m.eq.stats.ParkedAttempts++
	}
}

// join files the units a wake left due at the current cycle into the batch
// behind position bi, in rotation order, and restores the queue minimum.
func (m *Machine) join(bi int) {
	m.batch = append(m.batch, m.joiners...)
	slices.SortFunc(m.batch[bi+1:], func(a, b *TU) int { return m.rank(a) - m.rank(b) })
	clear(m.joiners)
	m.joiners = m.joiners[:0]
	m.eq.minAt = m.eq.next()
}

// writeBarrier sets unit tid's barrier contribution to v during by's
// attempt at cycle c, replaying the parked units first when the write
// changes the register they read.
func (m *Machine) writeBarrier(by *TU, c uint64, tid int, v uint8) {
	if m.parked > 0 && m.bar.Preview(tid, v) != m.bar.Read() {
		m.wake(c, by, wakeBarrier)
	}
	m.bar.Write(tid, v)
}

// WriteBarrier sets thread unit tid's contribution to the wired-OR barrier
// register. A Syscaller writes the register through it, not through
// Chip.Barrier: on the block engine a write that changes the register must
// first replay the units parked on it, ordered against the unit whose
// syscall writes.
func (m *Machine) WriteBarrier(tid int, v uint8) {
	m.writeBarrier(m.issuing, m.cycle, tid, v)
}

// reset returns the parking state to what tryPark allocates, keeping the
// units' records, zeroed, for the units that park next.
func (p *parking) reset() {
	for _, rec := range p.recs {
		if rec != nil {
			*rec = spinRec{}
		}
	}
	clear(p.list)
	*p = parking{recs: p.recs, list: p.list[:0], groups: p.groups[:0]}
}
