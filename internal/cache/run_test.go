package cache_test

import (
	"math/rand"
	"reflect"
	"testing"

	"cyclops/internal/arch"
	"cyclops/internal/cache"
	"cyclops/internal/mem"
	"cyclops/internal/timing"
)

// The run core's contract: LoadRun, StoreRun, LoadGather and StoreScatter
// followed by one Ledger.SettleRun leave the System and the ledger exactly
// where the same accesses made one at a time — Load or Store, then the
// ledger's ObserveAccess, ChargeRun and SettleAccess, the per-access loop
// the perf runtime ran before the run core existed — would, and report the
// sums of what those calls returned. This is an external test package
// because the ledger (internal/timing) imports internal/cache.

// runStart is the cycle every run issues at; warmSystem leaves fills in
// flight, ports reserved and banks busy around it.
const runStart = 1000

// warmSystem builds a System in a random but reproducible state: banks a
// few bytes short of 512 KB on some seeds (the end of working memory can
// then fall inside an interleave unit), on others an interleave unit of
// half a line (a line then spans two banks), one disabled quad, scratch
// ways on a random quad, sometimes a failed bank (working memory shrinks),
// and a few hundred loads and stores at random
// cycles around runStart over a window whose size decides how hot the
// caches, ports and banks are. About a quarter of the quads are cold: no
// warming access is issued from one or served by one, so their caches are
// still unbacked (the disabled quad's always, the scratch-partitioned one's
// on some seeds) and a run's first miss there backs the cache. The same
// seed always yields the same state, so two calls give twins.
func warmSystem(seed int64) *cache.System {
	cfg := arch.Default()
	rng := rand.New(rand.NewSource(seed))
	cfg.MemBankBytes -= 2 * rng.Intn(4)
	if rng.Intn(4) == 0 {
		cfg.MemInterleaveShift-- // two interleave units, and banks, a line
	}
	m := mem.New(cfg)
	if rng.Intn(4) == 0 {
		m.FailBank(rng.Intn(cfg.MemBanks))
	}
	s := cache.NewSystem(cfg, m)
	s.DisableQuad(rng.Intn(cfg.Quads()))
	s.PartitionScratch(rng.Intn(cfg.Quads()), rng.Intn(cfg.DCacheAssoc))
	cold := rng.Uint32() & rng.Uint32()          // bit q: quad q is cold
	window := uint32(2<<10) << (3 * rng.Intn(3)) // 2 KB, 16 KB or 128 KB
	for i := 0; i < 300; i++ {
		now := uint64(runStart - 200 + rng.Intn(400))
		ea := randomEA(rng, rng.Uint32()%window)
		own := rng.Intn(cfg.Quads())
		if cold>>own&1 == 1 || cold>>s.CacheFor(ea, own)&1 == 1 {
			continue
		}
		if rng.Intn(3) == 0 {
			s.Load(now, ea, 8, own)
		} else {
			s.Store(now, ea, 16, own)
		}
	}
	return s
}

// randomEA places phys under the accessing thread's own group, the
// chip-wide group or one random cache.
func randomEA(rng *rand.Rand, phys uint32) uint32 {
	switch rng.Intn(3) {
	case 0:
		return arch.EA(arch.InterestGroup{Mode: arch.GroupOwn}, phys)
	case 1:
		return arch.EA(arch.InterestGroup{Mode: arch.GroupAll}, phys)
	}
	return arch.EA(arch.InterestGroup{Mode: arch.GroupOne, Sel: uint8(rng.Intn(32))}, phys)
}

// runCase is one run, decoded from a fuzz input.
type runCase struct {
	store  bool
	eas    []uint32 // the gather/scatter form when non-nil
	ea     uint32   // else the strided form
	n      int
	size   int
	stride int
	own    int
	pol    timing.PolicyTable
}

// decodeRun reads a case out of spec's bits, so every spec is a valid case:
// the form (strided or address slice) and direction, n <= 32, size 4/8/16,
// a stride of 0, below a line, at or above a line, or 2048, a base in the
// warm window or straddling top, the end of working memory, the interest
// group, and the issue policy.
func decodeRun(spec uint64, top uint32) runCase {
	take := func(bits uint) int {
		v := int(spec & (1<<bits - 1))
		spec >>= bits
		return v
	}
	c := runCase{store: take(1) == 1}
	gather := take(1) == 1
	c.n = take(6) % 33
	c.size = []int{4, 8, 16, 8}[take(2)]
	switch take(2) {
	case 0:
		c.stride = 0
	case 1:
		c.stride = 1 + take(6)%63
	case 2:
		c.stride = 64 + take(10)
	default:
		c.stride = 2048
	}
	c.own = take(5)
	pen := uint64(1 + take(4))
	switch take(2) {
	case 1:
		c.pol = timing.Blocked{Pen: pen}.Table()
	case 2:
		c.pol = timing.SwitchOnMiss{Pen: pen}.Table()
	case 3:
		c.pol = timing.PolicyTable{OnMiss: pen, OnMem: pen + 3}
	}
	base := uint32(take(17))
	if take(2) == 0 {
		base = top - 256 + base%512
	}
	rng := rand.New(rand.NewSource(int64(spec)))
	c.ea = randomEA(rng, base)
	if gather {
		c.eas = make([]uint32, c.n)
		for i := range c.eas {
			c.eas[i] = randomEA(rng, base+uint32(rng.Intn(4096)))
		}
	}
	return c
}

// addr is the case's k-th effective address.
func (c runCase) addr(k int) uint32 {
	if c.eas != nil {
		return c.eas[k]
	}
	return c.ea + uint32(k*c.stride)
}

// reached records which of the run core's rare arms a case exercised, and
// whether it backed a cache: the run's first install into an unbacked one,
// and into one partitioned before it was backed. The rest are arms of the
// rest of a line, the accesses the core books in one step after the one
// that placed the line: a load continuation behind a busy port, a run of
// load continuations on a line still in flight whose later accesses no
// longer wait, a continuation store held by its bank (with and without a
// Mem penalty), a gather continuing in one line, a stride-0 run, and a
// store run that leaves its interleave unit or working memory inside one
// line, which ends the rest of the line there.
type reached struct {
	redirect, remoteGatherMiss, memSwitch, missSwitch, outOfRange bool
	backed, backedScratch                                         bool
	portWait, fillDrains, held, heldSwitch, gatherLine, stride0   bool
	unitInLine, limitInLine                                       bool
}

// missed names the arms r did not reach.
func (r reached) missed() []string {
	v := reflect.ValueOf(r)
	var names []string
	for i := 0; i < v.NumField(); i++ {
		if !v.Field(i).Bool() {
			names = append(names, v.Type().Field(i).Name)
		}
	}
	return names
}

// continues reports whether the run core books the case's k-th access in
// one step with the accesses before it, the rest of a line: it stays in
// the line of access k-1 and, for a store, in the same interleave unit of
// working memory. A store run that leaves its unit or working memory
// inside a line is marked in seen.
func (c runCase) continues(k int, s *cache.System, seen *reached) bool {
	if k == 0 || c.addr(k)>>6 != c.addr(k-1)>>6 {
		return false
	}
	if !c.store {
		return true
	}
	p, q, limit, shift := arch.Phys(c.addr(k)), arch.Phys(c.addr(k-1)), s.Mem.Size(), s.Cfg.MemInterleaveShift
	switch {
	case p >= limit && q >= limit:
		return false
	case p >= limit || q >= limit:
		seen.limitInLine = true
		return false
	case p>>shift != q>>shift:
		seen.unitInLine = true
		return false
	}
	return true
}

// checkRun runs spec's case on one warmed System through the run core and
// on its twin one access at a time, and fails t unless summary, ledger and
// System agree. It marks in seen the rare arms the case reached.
func checkRun(t *testing.T, warm int64, spec uint64, seen *reached) {
	t.Helper()
	sa, sb := warmSystem(warm), warmSystem(warm)
	c := decodeRun(spec, sa.Mem.Size())
	la, lb := timing.Ledger{Pol: c.pol}, timing.Ledger{Pol: c.pol}
	unbacked := make([]bool, len(sa.Caches))
	for i, d := range sa.Caches {
		unbacked[i] = !d.Backed()
	}

	var r cache.RunSummary
	switch {
	case c.store && c.eas != nil:
		r = sa.StoreScatter(runStart, c.eas, c.size, c.own, la.Penalty())
	case c.store:
		r = sa.StoreRun(runStart, c.ea, c.n, c.size, c.stride, c.own, la.Penalty())
	case c.eas != nil:
		r = sa.LoadGather(runStart, c.eas, c.size, c.own, la.Penalty())
	default:
		r = sa.LoadRun(runStart, c.ea, c.n, c.size, c.stride, c.own, la.Penalty())
	}
	next := la.SettleRun(r)

	want := cache.RunSummary{N: c.n}
	now := uint64(runStart)
	filling := false // a continuation of the current line waited for its fill
	for k := 0; k < c.n; k++ {
		ea := c.addr(k)
		cont := c.continues(k, sb, seen)
		var a cache.Access
		if c.store {
			a = sb.Store(now, ea, c.size, c.own)
			lb.ChargeRun(1)
			now++
			lb.ObserveAccess(a)
			if a.Done > now {
				blocked := a.Done - now
				port := min(a.Wait.Port, blocked)
				want.PortStall += port
				want.BankStall += blocked - port
				if c.pol.OnMem != 0 {
					want.MemSwitches++
					seen.memSwitch = true
				}
				seen.held = seen.held || cont && c.pol.OnMem == 0
				seen.heldSwitch = seen.heldSwitch || cont && c.pol.OnMem != 0
			}
			now = lb.SettleAccess(a, now, a.Done)
		} else {
			a = sb.Load(now, ea, c.size, c.own)
			lb.ObserveAccess(a)
			lb.ChargeRun(1)
			now++
			miss := a.Where == cache.LocalMiss || a.Where == cache.RemoteMiss
			if miss && c.pol.OnMiss != 0 {
				want.MissSwitches++
				seen.missSwitch = true
			}
			seen.remoteGatherMiss = seen.remoteGatherMiss || c.eas != nil && a.Where == cache.RemoteMiss
			now = lb.SettleAccess(a, now, now)
			seen.portWait = seen.portWait || cont && a.Wait.Port > 0
			seen.fillDrains = seen.fillDrains || filling && cont && a.Wait.Fill == 0
			filling = cont && (filling || a.Wait.Fill > 0)
		}
		seen.gatherLine = seen.gatherLine || cont && c.eas != nil
		seen.stride0 = seen.stride0 || cont && c.eas == nil && c.stride == 0
		want.Done = max(want.Done, a.Done)
		want.Wait.Port += a.Wait.Port
		want.Wait.Bank += a.Wait.Bank
		want.Wait.Fill += a.Wait.Fill
		want.Wait.Hop += a.Wait.Hop
		seen.redirect = seen.redirect || a.Cache != arch.CacheFor(ea, c.own, len(sb.Caches), 6)
		seen.outOfRange = seen.outOfRange || arch.Phys(ea) >= sb.Mem.Size()
	}
	want.Next = now

	if r != want {
		t.Errorf("summary %+v\nwant    %+v", r, want)
	}
	if next != now {
		t.Errorf("SettleRun resumes at %d, the single accesses at %d", next, now)
	}
	if !reflect.DeepEqual(la, lb) {
		t.Errorf("ledger after the run %+v\nafter single accesses %+v", la, lb)
	}
	if !reflect.DeepEqual(sa, sb) {
		t.Errorf("System state after the run differs from after single accesses")
	}
	for i, d := range sa.Caches {
		if unbacked[i] && d.Backed() {
			seen.backed = true
			seen.backedScratch = seen.backedScratch || d.ScratchWays() > 0
		}
	}
}

// TestAccessRunMatchesSingleAccesses is the property over a fixed sample of
// cases, and the reason every statement of run.go is covered: it also
// insists the sample reached the arms no shipped workload does.
func TestAccessRunMatchesSingleAccesses(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var seen reached
	for i := 0; i < 1500 && !t.Failed(); i++ {
		warm, spec := rng.Int63(), rng.Uint64()
		checkRun(t, warm, spec, &seen)
		if t.Failed() {
			t.Logf("warm %d, spec %#x", warm, spec)
		}
	}
	if missed := seen.missed(); len(missed) > 0 {
		t.Errorf("the sample missed %v", missed)
	}
}

// FuzzAccessRun is the same property over arbitrary warm states and runs.
func FuzzAccessRun(f *testing.F) {
	f.Add(int64(1), uint64(0x600183))       // 32 stores scattered across the end of memory, both penalties
	f.Add(int64(2), uint64(1<<40|0x4e0082)) // 32 loads gathered in the warm window, switchmiss/8
	f.Add(int64(3), ^uint64(0))
	f.Add(int64(4), uint64(0x2f5_0007_7c9d))
	f.Fuzz(func(t *testing.T, warm int64, spec uint64) {
		checkRun(t, warm, spec, new(reached))
	})
}
