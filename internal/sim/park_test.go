package sim

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"cyclops/internal/arch"
	"cyclops/internal/asm"
	"cyclops/internal/core"
	"cyclops/internal/isa"
	"cyclops/internal/prof"
)

// The spin-parking differential. Up to 128 units meet at the wired-OR
// barrier again and again, waiting in four loop shapes of three periods,
// while workers beside them halt, trap, sleep, store into a spin loop's
// text, have it rewritten from a syscall and drive barrier bits from one.
// Every block-engine run must end in the legacy oracle's state, down to
// the scheduler's rotation counter and every register's ready time.

// Roles a unit plays in spinProgram (r22).
const (
	roleSpin  = iota // meet the others at the barrier r21 times, withdraw, halt
	roleHalt         // work, then halt in the kernel
	roleStore        // work, then store spin loop s0's first word over itself
	roleDMA          // work, then have the kernel rewrite that word
	roleTrap         // work, then trap in the kernel
	roleSleep        // work, then sleep r24 cycles in the kernel
	roleWrite        // work, then drive barrier bits r24 from the kernel
	numRoles
)

// spinProgram is the differential's guest: r20 = tid, r21 = episodes, r22
// = role, r23 = work per episode, r24 = role argument, r25 = spin shape (0
// canonical, 1 andi, 2 an op waiting on a load, 3 a longer period). r16
// points at a line every unit loads and stores, r17 at the unit's own slot.
const spinProgram = `
_start:	la   r16, shared
	slli r17, r20, 3
	add  r17, r17, r16
	li   r26, 1
	li   r27, 2
	bne  r22, r0, worker
ep:	add  r9, r23, r21	; staggered work, varying by episode
work:	lw   r10, 0(r16)
	add  r10, r10, r20
	sw   r10, 8(r16)
	addi r9, r9, -1
	bne  r9, r0, work
	lw   r12, 2048(r17)	; shape 2 waits on it inside the loop
	mtspr r27, 4		; enter: clear current, set next
	beq  r25, r0, s0
	li   r9, 1
	beq  r25, r9, s1
	li   r9, 2
	beq  r25, r9, s2
s3:	mfspr r9, 4		; the longest period
	xor  r13, r9, r26
	or   r13, r13, r0
	and  r9, r9, r26
	bne  r9, r0, s3
	j    done
s0:	mfspr r9, 4
	and  r9, r9, r26
	bne  r9, r0, s0
	j    done
s1:	mfspr r9, 4
	andi r9, r9, 3
	and  r9, r9, r26
	bne  r9, r0, s1
	j    done
s2:	mfspr r9, 4
	or   r13, r12, r0
	and  r9, r9, r26
	bne  r9, r0, s2
done:	mov  r9, r26		; swap roles
	mov  r26, r27
	mov  r27, r9
	addi r21, r21, -1
	bne  r21, r0, ep
	j    wend
worker:	mov  r9, r23
wloop:	lw   r10, 0(r16)
	add  r10, r10, r20
	sw   r10, 16(r16)
	addi r9, r9, -1
	bne  r9, r0, wloop
	mov  a0, r22
	mov  a1, r24
	syscall
	li   r9, 2		; roleStore
	bne  r22, r9, wend
	la   r10, s0
	lw   r11, 0(r10)
	sw   r11, 0(r10)
wend:	mtspr r0, 4		; withdraw from the barrier
	halt
	.align 64
shared:	.space 4096
`

// spinKernel is the differential's Syscaller. It counts the actions taken
// while units were parked, which only the block engine does.
type spinKernel struct {
	text        uint32 // address of spin loop s0's first word
	whileParked [numRoles]int
}

func (k *spinKernel) Syscall(m *Machine, tu *TU) SysResult {
	role, arg := tu.Regs[isa.RArg0], tu.Regs[isa.RArg1]
	if m.parked > 0 {
		k.whileParked[role]++
	}
	switch role {
	case roleHalt:
		return SysResult{Halt: true}
	case roleDMA:
		w, err := m.mem.Read32(k.text)
		if err == nil {
			err = m.mem.Write32(k.text, w)
		}
		if err != nil {
			m.Trap("spinKernel: %v", err)
		}
	case roleTrap:
		m.Trap("spinKernel: thread %d traps", tu.ID)
		return SysResult{Halt: true}
	case roleSleep:
		return SysResult{Cost: uint64(arg)}
	case roleWrite:
		m.WriteBarrier(tu.ID, uint8(arg))
	}
	return SysResult{Cost: 3}
}

// spinSeen tallies what the parked units went through over a corpus.
type spinSeen struct {
	why           [wakeDeadlock + 1]int
	before, after int // write wakes with woken units due at the writer's cycle ahead of it, behind it
	periods       int // wakes of parked units of more than one period
}

// watch has m report its wakes to s.
func (s *spinSeen) watch(m *Machine) {
	m.onWake = func(why wakeReason, before, after int) {
		s.why[why]++
		if why <= wakeCode {
			s.before += min(before, 1)
			s.after += min(after, 1)
		}
		if len(m.park.groups) > 1 {
			s.periods++
		}
	}
}

// spinRun derives one case from seed and runs it on engine e: 2 to units
// units in shuffled start order and their plans, with a cycle limit that
// lands mid-run when flags bit 0 is set and a timeline when bit 1 is. A
// non-nil seen watches the machine's wakes.
func spinRun(seed int64, units int, cfg arch.Config, sc diffScenario, flags uint8, e Engine, seen *spinSeen) (*Machine, *spinKernel, error) {
	rng := rand.New(rand.NewSource(seed))
	p, err := asm.Assemble(spinProgram)
	if err != nil {
		return nil, nil, err
	}
	chip := core.MustNew(sc.lat.Apply(cfg))
	k := &spinKernel{text: p.Symbols["s0"]}
	m := New(chip, k)
	m.SetEngine(e)
	m.SetPolicy(sc.pol)
	if seen != nil {
		seen.watch(m)
	}
	m.MaxCycles = 300_000
	if flags&1 != 0 {
		m.MaxCycles = 300 + uint64(rng.Intn(3000))
	}
	if flags&2 != 0 {
		m.AttachTimeline(prof.NewTimeline(uint64(50 + rng.Intn(300))))
	}
	if err := chip.LoadImage(p.Origin, p.Bytes); err != nil {
		return nil, nil, err
	}
	workers := []uint32{roleHalt, roleHalt, roleStore, roleDMA, roleSleep, roleSleep, roleWrite, roleTrap}
	n := 2 + rng.Intn(min(units, cfg.Threads)-1)
	for _, tid := range rng.Perm(cfg.Threads)[:n] {
		r := &m.Unit(tid).Regs
		r[20], r[21], r[23], r[25] = uint32(tid), 1+uint32(rng.Intn(4)), 1+uint32(rng.Intn(16)), uint32(rng.Intn(4))
		if rng.Intn(4) == 0 {
			r[22], r[23], r[24] = workers[rng.Intn(len(workers))], 1+uint32(rng.Intn(100)), uint32(rng.Intn(3*wheelSlots))
			if r[22] == roleWrite {
				r[24] %= 4
			}
		} else {
			chip.Barrier.Write(tid, 1) // arm the current bit before the run
		}
		if err := m.Start(tid, p.Entry); err != nil {
			return nil, nil, err
		}
	}
	return m, k, m.Run()
}

// firstDiff returns a's first line that b does not have at the same place.
func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := range al {
		if i >= len(bl) || al[i] != bl[i] {
			return fmt.Sprintf("line %d: %s", i+1, al[i])
		}
	}
	return "(no differing line)"
}

// spinCompare runs one case on both engines and fails on any divergence;
// it returns the block-engine machine and kernel.
func spinCompare(t *testing.T, seed int64, units int, cfg arch.Config, sc diffScenario, flags uint8, seen *spinSeen) (*Machine, *spinKernel) {
	t.Helper()
	ref, _, refErr := spinRun(seed, units, cfg, sc, flags, EngineLegacy, nil)
	m, k, err := spinRun(seed, units, cfg, sc, flags, EngineBlock, seen)
	if m == nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	if want, got := diffState(ref, refErr), diffState(m, err); got != want {
		t.Fatalf("seed %d, <=%d units of %d, flags %d (%s): block engine diverges from legacy\n--- legacy ---\n%s\n--- block ---\n%s",
			seed, units, cfg.Threads, flags, sc, firstDiff(want, got), firstDiff(got, want))
	}
	return m, k
}

// TestSpinParkDifferential sweeps every (policy family, latency point)
// pair of scenarioFor over the chip sizes, with and without a cycle limit
// and a timeline, and checks the corpus took every parking path.
func TestSpinParkDifferential(t *testing.T) {
	var st SchedStats
	var seen spinSeen
	var whileParked [numRoles]int
	seed := int64(0)
	for polDraw := 0; polDraw < 3; polDraw++ {
		for latDraw := range diffLatencies() {
			for flags := uint8(0); flags < 4; flags++ {
				seed++
				sc := scenarioFor(polDraw+12*int(seed%16), latDraw)
				units := []int{128, 4, 126, 24}[seed%4]
				m, k := spinCompare(t, seed, units, schedConfig(int(seed)), sc, flags, &seen)
				s := m.SchedStats()
				// A unit's parking record is allocated when it first
				// parks: at most one per park, and none without one.
				recs := 0
				if m.park != nil {
					for _, rec := range m.park.recs {
						if rec != nil {
							recs++
						}
					}
				}
				if uint64(recs) > s.Parks || (recs > 0) != (s.Parks > 0) {
					t.Errorf("seed %d: %d units hold a parking record after %d parks", seed, recs, s.Parks)
				}
				st.Parks += s.Parks
				st.Wakes += s.Wakes
				st.ParkedAttempts += s.ParkedAttempts
				st.PhantomCycles += s.PhantomCycles
				for r, n := range k.whileParked {
					whileParked[r] += n
				}
			}
		}
	}
	t.Logf("%+v; wakes by reason %v, %d/%d write wakes with units due ahead of/behind the writer, %d with two periods; actions while parked %v",
		st, seen.why, seen.before, seen.after, seen.periods, whileParked)
	if st.Parks == 0 || st.Wakes == 0 || st.ParkedAttempts == 0 || st.PhantomCycles == 0 {
		t.Errorf("a parking counter stayed zero: %+v", st)
	}
	for why, n := range seen.why[:wakeLimit+1] { // TestSpinDeadlock has the deadlock
		if n == 0 {
			t.Errorf("no wake of reason %d", why)
		}
	}
	if seen.before == 0 || seen.after == 0 || seen.periods == 0 {
		t.Errorf("write wakes with units due ahead %d, behind %d; wakes over two periods %d: want each", seen.before, seen.after, seen.periods)
	}
	for _, r := range []int{roleHalt, roleStore, roleDMA, roleTrap} {
		if whileParked[r] == 0 {
			t.Errorf("role %d never acted while units were parked", r)
		}
	}
}

// FuzzSpinParkDifferential lets the fuzzer pick the case: plans from seed,
// the unit bound, the scenario, the chip size and the flags.
func FuzzSpinParkDifferential(f *testing.F) {
	f.Add(int64(1), uint8(126), uint8(0), uint8(0), uint8(2), uint8(0))
	f.Add(int64(2), uint8(255), uint8(1), uint8(1), uint8(0), uint8(3))
	f.Add(int64(3), uint8(4), uint8(2), uint8(2), uint8(1), uint8(1))
	f.Add(int64(4), uint8(40), uint8(41), uint8(3), uint8(3), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, units, polDraw, latDraw, cfgDraw, flags uint8) {
		spinCompare(t, seed, 2+int(units), schedConfig(int(cfgDraw)), scenarioFor(int(polDraw), int(latDraw)), flags, nil)
	})
}

// spinBoot runs src on engine e: units 2 and up, one per entry of r4s,
// start at the entry point with that r4, after setup prepared the machine.
func spinBoot(t *testing.T, src string, e Engine, cfg arch.Config, limit uint64, setup func(*Machine), r4s ...uint32) (*Machine, error) {
	t.Helper()
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	chip := core.MustNew(cfg)
	m := New(chip, nil)
	m.SetEngine(e)
	m.MaxCycles = limit
	if err := chip.LoadImage(p.Origin, p.Bytes); err != nil {
		t.Fatal(err)
	}
	if setup != nil {
		setup(m)
	}
	for i, r4 := range r4s {
		m.Unit(2 + i).Regs[4] = r4
		if err := m.Start(2+i, p.Entry); err != nil {
			t.Fatal(err)
		}
	}
	return m, m.Run()
}

// selfBarrier waits at a barrier whose one participant never clears its
// bit; with r4 set the unit instead divides forever.
const selfBarrier = `
	bne  r4, r0, divs
	li   r8, 1
	mtspr r8, 4
spin:	mfspr r9, 4
	and  r9, r9, r8
	bne  r9, r0, spin
	halt
divs:	li   r10, 7
dloop:	div  r11, r10, r10
	j    dloop
`

// A barrier nobody can release: with a limit both engines stop at the
// first cycle past it, for the block engine a cycle only the parked unit
// is due at; with none the block engine reports the deadlock at once.
func TestSpinDeadlock(t *testing.T) {
	var seen spinSeen
	for _, r4s := range [][]uint32{{0}, {0, 1}} {
		phantom := 0
		for limit := uint64(3000); limit < 3008; limit++ {
			ref, refErr := spinBoot(t, selfBarrier, EngineLegacy, arch.Default(), limit, nil, r4s...)
			m, err := spinBoot(t, selfBarrier, EngineBlock, arch.Default(), limit, seen.watch, r4s...)
			if want, got := diffState(ref, refErr), diffState(m, err); got != want || !strings.Contains(err.Error(), "cycle limit") {
				t.Fatalf("units %v, limit %d: block engine diverges from legacy\n--- legacy ---\n%s\n--- block ---\n%s",
					r4s, limit, want, got)
			}
			if len(r4s) == 1 || m.Unit(3).nextAt != m.cycle {
				phantom++
			}
		}
		if phantom == 0 {
			t.Errorf("units %v: the limit never fell on a phantom cycle", r4s)
		}
	}
	if seen.why[wakeLimit] != 16 {
		t.Errorf("%d limit wakes, want 16", seen.why[wakeLimit])
	}
	m, err := spinBoot(t, selfBarrier, EngineBlock, arch.Default(), 0, seen.watch, 0)
	if err == nil || !strings.Contains(err.Error(), "sim: deadlock: cycle ") || !strings.Contains(err.Error(), " 1 thread units spinning") {
		t.Fatalf("unbounded self-barrier: %v, want a deadlock", err)
	}
	if m.Cycle() > 100 || seen.why[wakeDeadlock] != 1 || m.Unit(2).Insts < 3 {
		t.Errorf("deadlock found at cycle %d after %d instructions, %d deadlock wakes", m.Cycle(), m.Unit(2).Insts, seen.why[wakeDeadlock])
	}
}

// pairBarrier: unit 2 (r4 = 1) works before it enters; unit 3 waits for it.
const pairBarrier = `
	li   r9, 300
	beq  r4, r0, enter
delay:	addi r9, r9, -1
	bne  r9, r0, delay
enter:	li   r11, 2
	mtspr r11, 4
spin:	mfspr r12, 4
	andi r12, r12, 1
	bne  r12, r0, spin
	halt
`

// A unit observed attempt by attempt never parks, nor does one whose
// prefetch buffer cannot hold its spin loop; each run still equals the
// legacy oracle's, trace and profile included.
func TestSpinParkObservers(t *testing.T) {
	small := arch.Default()
	small.PIBEntries = 2
	cases := []struct {
		name  string
		cfg   arch.Config
		trace bool
		prof  bool
		parks bool
	}{
		{"unobserved", arch.Default(), false, false, true},
		{"traced", arch.Default(), true, false, false},
		{"profiled", arch.Default(), false, true, false},
		{"two-entry PIB", small, false, false, false},
	}
	for _, c := range cases {
		var got [2]string
		var parks uint64
		for i, e := range Engines() {
			var tb *TraceBuffer
			var pr *prof.Profile
			setup := func(m *Machine) {
				m.Chip.Barrier.Write(2, 1)
				m.Chip.Barrier.Write(3, 1)
				if c.trace {
					tb = NewTraceBuffer(4096)
					m.Trace = tb
				}
				if c.prof {
					pr = prof.New(1)
					m.AttachProfile(pr)
				}
			}
			m, err := spinBoot(t, pairBarrier, e, c.cfg, 100_000, setup, 1, 0)
			got[i] = diffState(m, err)
			parks += m.SchedStats().Parks
			if tb != nil {
				got[i] += tb.Dump()
			}
			if pr != nil {
				var sb strings.Builder
				if err := pr.WriteFolded(&sb, nil); err != nil {
					t.Fatal(err)
				}
				got[i] += sb.String()
			}
		}
		if got[0] != got[1] {
			t.Errorf("%s: block engine diverges from legacy\n--- block ---\n%s\n--- legacy ---\n%s", c.name, got[0], got[1])
		}
		if (parks > 0) != c.parks {
			t.Errorf("%s: %d parks, want parking %v", c.name, parks, c.parks)
		}
	}
}

// countingSpin reads the barrier in a loop that also counts, so no two
// iterations match: it never parks, and checks ever less often.
const countingSpin = `
	li   r8, 1
	mtspr r8, 4
spin:	mfspr r9, 4
	addi r10, r10, 1
	slti r11, r10, 300
	and  r9, r9, r11
	bne  r9, r0, spin
	halt
`

func TestSpinParkBacksOff(t *testing.T) {
	ref, refErr := spinBoot(t, countingSpin, EngineLegacy, arch.Default(), 100_000, nil, 0)
	m, err := spinBoot(t, countingSpin, EngineBlock, arch.Default(), 100_000, nil, 0)
	if want, got := diffState(ref, refErr), diffState(m, err); got != want {
		t.Fatalf("block engine diverges from legacy\n--- legacy ---\n%s\n--- block ---\n%s", want, got)
	}
	if s := m.SchedStats(); s.Parks != 0 {
		t.Errorf("%d parks, want none", s.Parks)
	}
}

// A Syscaller that writes the barrier register behind the machine's back
// while units are parked is reported, not silently mis-simulated.
type rawBarrierKernel struct{}

func (rawBarrierKernel) Syscall(m *Machine, tu *TU) SysResult {
	m.Chip.Barrier.Write(2, 0)
	return SysResult{Cost: 1}
}

func TestWriteBarrierAroundMachine(t *testing.T) {
	p, err := asm.Assemble(`
	bne  r4, r0, late
	li   r8, 1
spin:	mfspr r9, 4
	and  r9, r9, r8
	bne  r9, r0, spin
	halt
late:	li   r9, 200
delay:	addi r9, r9, -1
	bne  r9, r0, delay
	syscall
	halt
`)
	if err != nil {
		t.Fatal(err)
	}
	chip := core.MustNew(arch.Default())
	m := New(chip, rawBarrierKernel{})
	m.MaxCycles = 100_000
	if err := chip.LoadImage(p.Origin, p.Bytes); err != nil {
		t.Fatal(err)
	}
	chip.Barrier.Write(2, 1)
	m.Unit(3).Regs[4] = 1
	for tid := 2; tid <= 3; tid++ {
		if err := m.Start(tid, p.Entry); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Run(); err == nil || !strings.Contains(err.Error(), "around Machine.WriteBarrier") {
		t.Fatalf("run ended with %v, want the unsynchronized barrier write reported", err)
	}
}

// spinShapeOf assembles src and returns spinShape's answer for the block
// compiled at its first word.
func spinShapeOf(t *testing.T, src string) (uint32, []uint8, int) {
	t.Helper()
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	var code []isa.Inst
	for off := 0; off+4 <= len(p.Bytes); off += 4 {
		in := isa.Decode(binary.LittleEndian.Uint32(p.Bytes[off:]))
		code = append(code, in)
		if isa.EndsBlock(in) {
			break
		}
	}
	head, regs, nw := spinShape(p.Origin, code)
	if head != noSpin {
		head -= p.Origin
	}
	return head, regs, nw
}

func TestSpinShape(t *testing.T) {
	nops := strings.Repeat("\taddi r9, r9, 0\n", 14)
	cases := []struct {
		name, src string
		head      uint32 // offset from the block's base
		regs      string
		nw        int
	}{
		{"canonical", "s: mfspr r9, 4\n and r9, r9, r26\n bne r9, r0, s", 0, "[9 26]", 1},
		{"andi", "s: mfspr r12, 4\n andi r12, r12, 1\n bne r12, r0, s", 0, "[12]", 1},
		{"after straight-line code", "li r27, 2\n mtspr r27, 4\ns: mfspr r9, 4\n and r9, r9, r26\n bne r9, r0, s", 8, "[9 26]", 1},
		{"sixteen ops", "s: mfspr r9, 4\n" + nops + " bne r9, r0, s", 0, "[9]", 1},
		{"seventeen ops", "s: mfspr r9, 4\n addi r9, r9, 0\n" + nops + " bne r9, r0, s", noSpin, "[]", 0},
		{"one-op loop", "s: bne r9, r0, s", noSpin, "[]", 0},
		{"forward branch", "mfspr r9, 4\n bne r9, r0, s\ns: halt", noSpin, "[]", 0},
		{"branch before the block", "s: nop\n mfspr r9, 4\n j t\nt: bne r9, r0, s", noSpin, "[]", 0},
		{"no barrier read", "s: mfspr r9, 2\n and r9, r9, r26\n bne r9, r0, s", noSpin, "[]", 0},
		{"a load", "s: mfspr r9, 4\n lw r10, 0(r9)\n bne r10, r0, s", noSpin, "[]", 0},
		{"nine registers", "s: mfspr r9, 4\n add r1, r2, r3\n add r5, r6, r7\n add r8, r10, r11\n bne r9, r0, s", noSpin, "[]", 0},
	}
	for _, c := range cases {
		head, regs, nw := spinShapeOf(t, c.src)
		if head != c.head || fmt.Sprint(regs) != c.regs || nw != c.nw {
			t.Errorf("%s: head %#x regs %v nw %d, want %#x %s %d", c.name, head, regs, nw, c.head, c.regs, c.nw)
		}
	}
}

// TestSpinGroupArithmetic holds next and count to a cycle-by-cycle scan,
// and bookPhantoms over two periods to the scan of their union.
func TestSpinGroupArithmetic(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 3000; i++ {
		period := uint64(2 + rng.Intn(maxPeriod-1))
		g := spinGroup{period: period, due: rng.Uint64() & (1<<period - 1)}
		if rng.Intn(4) == 0 {
			g.due &= g.due - 1 // sparser masks reach the wrap-around
		}
		if g.due == 0 {
			g.due = 1 << (period - 1)
		}
		due := func(c uint64) bool { return g.due>>(c%period)&1 != 0 }
		a := uint64(rng.Intn(1000))
		b := a + uint64(rng.Intn(300))
		var n uint64
		for c := a; c < b; c++ {
			if due(c) {
				n++
			}
		}
		next := a
		for !due(next) {
			next++
		}
		if got := g.count(a, b); got != n {
			t.Fatalf("period %d due %#b: count(%d, %d) = %d, want %d", period, g.due, a, b, got, n)
		}
		if got := g.next(a); got != next {
			t.Fatalf("period %d due %#b: next(%d) = %d, want %d", period, g.due, a, got, next)
		}
	}
	m := &Machine{park: &parking{groups: []spinGroup{{period: 4, due: 0b0101}, {period: 6, due: 0b100010}}}}
	m.bookPhantoms(10, 200)
	var n int
	for c := 10; c < 200; c++ {
		if c%4 == 0 || c%4 == 2 || c%6 == 1 || c%6 == 5 {
			n++
		}
	}
	if m.rr != n || m.eq.stats.PhantomCycles != uint64(n) {
		t.Errorf("two periods: booked rr %d, %d phantom cycles; want %d", m.rr, m.eq.stats.PhantomCycles, n)
	}
}
