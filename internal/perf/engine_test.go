package perf

import (
	"container/heap"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"cyclops/internal/arch"
	"cyclops/internal/core"
	"cyclops/internal/isa"
	"cyclops/internal/prof"
	"cyclops/internal/timing"
)

// --- queue differential ------------------------------------------------------

// refQueue is the engine's previous event queue, kept as the oracle:
// container/heap over boxed events, the tie hash recomputed in Less.
type refQueue []event

func (q refQueue) Len() int { return len(q) }
func (q refQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	hi := tieHash(q[i].at, q[i].t.ID)
	hj := tieHash(q[j].at, q[j].t.ID)
	if hi != hj {
		return hi < hj
	}
	return q[i].t.ID < q[j].t.ID
}
func (q refQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x interface{}) { *q = append(*q, x.(event)) }
func (q *refQueue) Pop() interface{} {
	old := *q
	n := len(old)
	e := old[n-1]
	*q = old[:n-1]
	return e
}

// queueDiff drives both queues with one op stream and fails on the first
// pop that differs. Each op byte pair is (control, time): an odd control
// pops, an even one pushes the unit control/2 at the given time unless
// that unit is already queued — the engine's invariant, and what makes
// the order total. ats maps the time byte to a cycle.
func queueDiff(t *testing.T, ops []byte, ats func(b byte) uint64) {
	t.Helper()
	threads := make([]*T, 128)
	for i := range threads {
		threads[i] = &T{ID: i}
	}
	var (
		q      eventQueue
		ref    refQueue
		queued [128]bool
	)
	pop := func() {
		got, want := q.pop(), heap.Pop(&ref).(event)
		if got.at != want.at || got.t != want.t {
			t.Fatalf("pop: typed heap (at %d, unit %d), container/heap (at %d, unit %d)",
				got.at, got.t.ID, want.at, want.t.ID)
		}
		if got.h != tieHash(got.at, got.t.ID) {
			t.Fatalf("event (at %d, unit %d) carries hash %#x", got.at, got.t.ID, got.h)
		}
		queued[got.t.ID] = false
	}
	for i := 0; i+1 < len(ops); i += 2 {
		id := int(ops[i] / 2)
		if ops[i]&1 == 1 {
			if len(q) > 0 {
				pop()
			}
		} else if !queued[id] {
			at := ats(ops[i+1])
			q.push(at, threads[id])
			heap.Push(&ref, event{at: at, t: threads[id]})
			queued[id] = true
		}
		if len(q) != len(ref) {
			t.Fatalf("typed heap holds %d events, container/heap %d", len(q), len(ref))
		}
	}
	for len(q) > 0 {
		pop()
	}
}

func TestEventQueueAgainstContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	spread := map[string]func(b byte) uint64{
		"wide":      func(b byte) uint64 { return uint64(b) * 977 },
		"narrow":    func(b byte) uint64 { return uint64(b % 4) },
		"one-cycle": func(b byte) uint64 { return 7 },
		"high-bits": func(b byte) uint64 { return 1<<40 + uint64(b%3)<<32 }, // equal in the hash's 32 bits
	}
	for name, ats := range spread {
		for round := 0; round < 50; round++ {
			ops := make([]byte, 2*(1+rng.Intn(400)))
			rng.Read(ops)
			if round%2 == 0 {
				// Fill first, then drain: the deepest heaps.
				for i := 0; i < len(ops)/2; i += 2 {
					ops[i] &^= 1
				}
			}
			t.Run(name, func(t *testing.T) { queueDiff(t, ops, ats) })
		}
	}
}

// TestEventOrder pins the comparator level by level. At one cycle the tie
// hash is a bijection of the unit id, so two queued events never share a
// hash; the id level is reached here with hand-made events, and is what
// makes the order total on its face.
func TestEventOrder(t *testing.T) {
	lo, hi := &T{ID: 3}, &T{ID: 90}
	for _, tc := range []struct {
		name string
		a, b event // a sorts first
	}{
		{"time beats hash and id", event{at: 4, h: 9, t: hi}, event{at: 5, h: 1, t: lo}},
		{"hash beats id", event{at: 5, h: 1, t: hi}, event{at: 5, h: 2, t: lo}},
		{"id last", event{at: 5, h: 7, t: lo}, event{at: 5, h: 7, t: hi}},
	} {
		if !tc.a.before(tc.b) || tc.b.before(tc.a) {
			t.Errorf("%s: order of %+v and %+v", tc.name, tc.a, tc.b)
		}
	}
	if e := (event{at: 5, h: 7, t: lo}); e.before(e) {
		t.Error("an event sorts before itself")
	}
}

func FuzzEventQueue(f *testing.F) {
	f.Add([]byte{0, 5, 2, 5, 4, 5, 1, 0, 1, 0, 1, 0})             // one cycle, three units
	f.Add([]byte{0, 9, 2, 8, 4, 7, 6, 6, 8, 5, 1, 0, 0, 1, 1, 0}) // descending pushes, re-push after pop
	f.Add([]byte{254, 255, 252, 0, 1, 0, 254, 0, 1, 0, 1, 0})     // highest unit, extreme times
	f.Add([]byte{1, 0, 1, 0})                                     // pops on an empty queue
	f.Add([]byte{0, 1, 0, 2, 0, 3, 1, 0})                         // a unit already queued is not queued twice
	f.Fuzz(func(t *testing.T, ops []byte) {
		// Eight cycles for 128 units: every heap level holds ties.
		queueDiff(t, ops, func(b byte) uint64 { return uint64(b % 8) })
		queueDiff(t, ops, func(b byte) uint64 { return uint64(b) << 30 })
	})
}

// --- the machine the substrate tests share ------------------------------------

// mixedMachine builds a 12-thread machine whose bodies mix every kind of
// scheduling point: bulk and scattered memory ops, FPU dispatch, atomics,
// and both barriers, with staggered work so arrivals and ties vary.
func mixedMachine() *Machine {
	const n = 12
	m := NewDefault()
	data := m.SharedAlloc(1 << 16)
	ctr := m.SharedAlloc(64)
	hw := NewHWBarrier(n)
	sw := NewSWBarrier(m, n, 3)
	if err := m.SpawnN(n, func(th *T, i int) {
		eas := make([]uint32, 40)
		for phase := 0; phase < 3; phase++ {
			th.Work(3 * ((i + phase) % 5))
			v := th.LoadBlock(data+uint32(i*512), 48, 8, 8)
			for k := 0; k < 6; k++ {
				v = th.FMA(v, th.LoadF64(data+uint32(8*((i*131+k*17+phase)%4096))))
			}
			for k := range eas {
				eas[k] = data + uint32(8*((i*67+k*29+phase*7)%8000))
			}
			th.StoreScatter(eas, 8, v)
			th.StoreU32(ctr+4, th.Atomic(ctr))
			if phase%2 == 0 {
				th.HWBarrier(hw)
			} else {
				th.SWBarrier(sw, i)
			}
		}
	}); err != nil {
		panic(err)
	}
	return m
}

// handOffOrder is the SHA-256 of mixedMachine's resume sequence, each
// resume as little-endian (at uint64, unit uint32), recorded on the
// goroutine-and-channel engine this one replaced (commit 611751a, with the
// same onResume call added after its heap.Pop).
const handOffOrder = "edc03eff212cd082b7e66467e38c40d5a729af1c41f994a062aab067f658b266"

func TestHandOffOrderMatchesChannelEngine(t *testing.T) {
	m := mixedMachine()
	h := sha256.New()
	resumes := 0
	m.onResume = func(at uint64, unit int) {
		var rec [12]byte
		binary.LittleEndian.PutUint64(rec[:8], at)
		binary.LittleEndian.PutUint32(rec[8:], uint32(unit))
		h.Write(rec[:])
		resumes++
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != handOffOrder {
		t.Errorf("%d resumes hash to %s, the channel engine's order to %s", resumes, got, handOffOrder)
	}
}

// TestSnapshotIndependentOfGOMAXPROCS: one host thread of control, so the
// number of Ps the runtime has cannot reach a simulated number.
func TestSnapshotIndependentOfGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var want []byte
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		for rep := 0; rep < 20; rep++ {
			m := mixedMachine()
			if err := m.Run(); err != nil {
				t.Fatal(err)
			}
			got, err := json.Marshal(m.Snapshot())
			if err != nil {
				t.Fatal(err)
			}
			if want == nil {
				want = got
			} else if string(got) != string(want) {
				t.Fatalf("GOMAXPROCS %d, repeat %d: snapshot differs from the first run's", procs, rep)
			}
		}
	}
}

// --- Run's exit paths ---------------------------------------------------------

// deadlockedMachine parks two threads on a barrier a third never reaches.
// closed counts the region closers and deferred calls that ran.
func deadlockedMachine(closed *int) *Machine {
	m := NewDefault()
	m.AttachProfile(prof.New(64))
	b := NewHWBarrier(3)
	m.SpawnN(2, func(th *T, i int) {
		defer func() { *closed++ }()
		defer th.Region("waits")()
		th.HWBarrier(b)
		panic("released from a barrier nobody completed")
	})
	return m
}

func TestDeadlockUnwindsBlockedThreads(t *testing.T) {
	closed := 0
	err := deadlockedMachine(&closed).Run()
	if err == nil || !strings.Contains(err.Error(), "deadlock: 2 threads") {
		t.Fatalf("Run = %v, want a deadlock of 2 threads", err)
	}
	if closed != 2 {
		t.Errorf("%d of 2 blocked bodies ran their deferred calls", closed)
	}
}

func TestPanicInBodyIsRunError(t *testing.T) {
	m := NewDefault()
	b := NewHWBarrier(4)
	unwound := 0
	m.SpawnN(4, func(th *T, i int) {
		defer func() { unwound++ }()
		th.HWBarrier(b) // every body has started
		th.Work(10 * i)
		if i == 2 {
			var eas []uint32
			th.LoadU32(eas[3]) // index out of range
		}
		th.HWBarrier(b) // 0 and 1 are parked here by then, 3 is queued
	})
	err := m.Run()
	if err == nil {
		t.Fatal("Run succeeded over a panicking body")
	}
	for _, want := range []string{
		fmt.Sprintf("perf: thread on unit %d panicked: ", m.Threads()[2].ID),
		"index out of range [3]",
		"TestPanicInBodyIsRunError", // the body's own stack
	} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error lacks %q:\n%v", want, err)
		}
	}
	if unwound != 4 {
		t.Errorf("%d of 4 bodies ran their deferred calls", unwound)
	}
	// The machine is not wedged: the same threads run again, and this time
	// the error is the same panic, not a stale one.
	if err2 := m.Run(); err2 == nil || !strings.Contains(err2.Error(), "index out of range [3]") {
		t.Errorf("second Run = %v", err2)
	}
}

// TestRunLeavesNoGoroutines: coroutines count as goroutines, and every one
// Run creates must be gone when it returns, however it returns.
func TestRunLeavesNoGoroutines(t *testing.T) {
	settled := func() int {
		// An unwound coroutine's goroutine exits just after stop returns.
		n := runtime.NumGoroutine()
		for i := 0; i < 100; i++ {
			time.Sleep(time.Millisecond)
			if next := runtime.NumGoroutine(); next == n {
				break
			} else {
				n = next
			}
		}
		return n
	}
	base := settled()
	for rep := 0; rep < 10; rep++ {
		if err := mixedMachine().Run(); err != nil {
			t.Fatal(err)
		}
		var closed int
		if err := deadlockedMachine(&closed).Run(); err == nil {
			t.Fatal("deadlock not reported")
		}
		m := NewDefault()
		ea := m.SharedAlloc(64)
		m.SpawnN(8, func(th *T, i int) {
			th.LoadF64(ea)
			if i == 5 {
				panic("boom")
			}
			th.Work(1)
			th.FAdd()
		})
		if err := m.Run(); err == nil || !strings.Contains(err.Error(), "panicked: boom") {
			t.Fatalf("Run = %v, want the body's panic", err)
		}
		if err := runawayMachine(nil).Run(); !errors.Is(err, timing.ErrCycleLimit) {
			t.Fatalf("Run = %v, want the cycle limit", err)
		}
	}
	if after := settled(); after > base {
		t.Errorf("%d goroutines before, %d after ten normal, deadlocked, panicking and runaway runs", base, after)
	}
}

// runawayMachine builds a machine under a 10,000-cycle limit whose four
// threads loop on FMA forever, counting in *unwound the bodies that ran
// their deferred calls.
func runawayMachine(unwound *int) *Machine {
	m := NewDefault()
	m.MaxCycles = 10_000
	m.SpawnN(4, func(th *T, i int) {
		if unwound != nil {
			defer func() { *unwound++ }()
		}
		v := th.FMA()
		for {
			v = th.FMA(v)
		}
	})
	return m
}

func TestCycleLimitEndsRunawayRun(t *testing.T) {
	unwound := 0
	m := runawayMachine(&unwound)
	err := m.Run()
	if !errors.Is(err, timing.ErrCycleLimit) || err.Error() != "perf: cycle limit 10000 exceeded" {
		t.Fatalf("Run = %v, want perf's cycle-limit error", err)
	}
	if unwound != 4 {
		t.Errorf("%d of 4 bodies ran their deferred calls", unwound)
	}
	// Every resume Run made was at or before the limit; a thread reaches
	// past it only inside its last hand-off.
	if e := m.Elapsed(); e <= m.MaxCycles || e > m.MaxCycles+100 {
		t.Errorf("Elapsed = %d, want just past the limit %d", e, m.MaxCycles)
	}
	// The same machine unbounded runs to the limit's absence: a finite
	// workload under a limit it never reaches is unchanged by it.
	ref, bounded := mixedMachine(), mixedMachine()
	bounded.MaxCycles = 1 << 40
	if err := ref.Run(); err != nil {
		t.Fatal(err)
	}
	if err := bounded.Run(); err != nil {
		t.Fatal(err)
	}
	if a, b := snapshotJSON(t, ref), snapshotJSON(t, bounded); a != b {
		t.Error("a limit the run never reaches changed its snapshot")
	}
}

func snapshotJSON(t *testing.T, m *Machine) string {
	t.Helper()
	b, err := json.Marshal(m.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestTimelineSamplesRun: a timeline attached to the runtime ticks at
// resumes and finishes at the run's end, its rows telescope to the
// chip's end-of-run counters, and sampling changes nothing it observes.
func TestTimelineSamplesRun(t *testing.T) {
	ref, m := mixedMachine(), mixedMachine()
	tl := prof.NewTimeline(500)
	m.AttachTimeline(tl)
	if err := ref.Run(); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if n := len(tl.Rows()); n < 2 {
		t.Fatalf("%d timeline rows, want several", n)
	}
	if got, want := tl.Sum(), m.counters(); got != want {
		t.Errorf("rows sum to %+v, want the end-of-run counters %+v", got, want)
	}
	if a, b := snapshotJSON(t, ref), snapshotJSON(t, m); a != b {
		t.Error("attaching a timeline changed the run's snapshot")
	}
}

// --- host-side counters ----------------------------------------------------------

func TestSchedStats(t *testing.T) {
	m := mixedMachine()
	resumes := uint64(0)
	m.onResume = func(uint64, int) { resumes++ }
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	s := m.SchedStats()
	// Every queued event was popped and resumed exactly one thread.
	if s.Resumes != resumes || s.Pushes != s.Resumes {
		t.Errorf("resumes %d (hook saw %d), pushes %d: want all equal on a completed run", s.Resumes, resumes, s.Pushes)
	}
	// Two hardware barrier phases of 12 threads: 11 parked each time.
	if s.Wakes != 22 {
		t.Errorf("barrier wake-ups = %d, want 22", s.Wakes)
	}
	if s.MaxDepth != 12 {
		t.Errorf("max queue depth = %d, want all 12 threads", s.MaxDepth)
	}
	// A deadlocked run's counters are its own, not the last run's.
	var closed int
	d := deadlockedMachine(&closed)
	d.Run()
	// Two threads, each started and then resumed once to enter the
	// barrier; no bulk operation, so no run.
	if s := d.SchedStats(); s != (SchedStats{Resumes: 4, Pushes: 4, MaxDepth: 2, Runs: 0, RunAccesses: 0}) {
		t.Errorf("deadlocked run: %+v", s)
	}
}

// smallFFT is the timing skeleton of splash.RunFFT (which perf's tests
// cannot import) at 1024 points on 8 threads: a transpose, the row FFTs
// staged through a per-thread own-cache scratch row, a transpose back, a
// hardware barrier between phases. Each thread owns 4 of the 32 rows.
func smallFFT(pol timing.Policy, profiled bool) *Machine {
	const m, threads = 32, 8
	mach := NewDefault()
	mach.SetPolicy(pol)
	if profiled {
		mach.AttachProfile(prof.New(16))
	}
	a, b := mach.SharedAlloc(16*m*m), mach.SharedAlloc(16*m*m)
	scratch := make([]uint32, threads)
	for p := range scratch {
		scratch[p] = mach.MustAlloc(16*m, arch.InterestGroup{Mode: arch.GroupOwn})
	}
	bar := NewHWBarrier(threads)
	if err := mach.SpawnN(threads, func(t *T, p int) {
		lo, hi := p*m/threads, (p+1)*m/threads
		transpose := func(src, dst uint32) {
			for i := lo; i < hi; i++ {
				v := t.LoadBlock(src+uint32(16*i*m), 2*m, 8, 8) // 2 runs
				t.StoreBlock(dst+uint32(16*i), m, 16, 16*m, v)  // 1 run
			}
			t.HWBarrier(bar)
		}
		transpose(a, b)
		for i := lo; i < hi; i++ { // 8 runs a row
			v := t.LoadBlock(b+uint32(16*i*m), 2*m, 8, 8)
			t.StoreBlock(scratch[p], 2*m, 8, 8, v)
			w := t.FPBlock(isa.PipeBoth, 5*m/2, t.LoadBlock(scratch[p], 2*m, 8, 8))
			t.StoreBlock(b+uint32(16*i*m), 2*m, 8, 8, w)
		}
		t.HWBarrier(bar)
		transpose(b, a)
	}); err != nil {
		panic(err)
	}
	return mach
}

// TestRunCounters pins the run counters on smallFFT: per thread, two
// transposes of 4 rows at 3 runs and 96 accesses a row, and 4 row FFTs at
// 8 runs and 256 accesses — 56 runs of 1792 accesses, times 8 threads. A
// profiled thread issues the same accesses as runs of one, and the
// snapshot, every cycle of it, does not notice.
func TestRunCounters(t *testing.T) {
	for _, pol := range []timing.Policy{timing.FineGrain{}, timing.SwitchOnMiss{Pen: 8}, timing.Blocked{Pen: 8}} {
		var snaps [2][]byte
		for i, profiled := range []bool{false, true} {
			m := smallFFT(pol, profiled)
			if err := m.Run(); err != nil {
				t.Fatal(err)
			}
			want := SchedStats{Runs: 448, RunAccesses: 14336}
			if profiled {
				want.Runs = want.RunAccesses
			}
			if s := m.SchedStats(); s.Runs != want.Runs || s.RunAccesses != want.RunAccesses {
				t.Errorf("%s, profiled %v: %d runs of %d accesses, want %d of %d",
					pol, profiled, s.Runs, s.RunAccesses, want.Runs, want.RunAccesses)
			}
			var err error
			if snaps[i], err = json.Marshal(m.Snapshot()); err != nil {
				t.Fatal(err)
			}
		}
		if string(snaps[0]) != string(snaps[1]) {
			t.Errorf("%s: runs of one timed the FFT differently from runs of %d", pol, bulkChunk)
		}
	}
}

// --- placement ---------------------------------------------------------------------

func TestPlacementOrderBuiltOnce(t *testing.T) {
	chip := core.MustNew(arch.Default())
	chip.DisableQuad(1)
	m := New(chip)
	m.Balanced = true
	if err := m.SpawnN(40, func(*T, int) {}); err != nil {
		t.Fatal(err)
	}
	if got, want := len(m.order), 126-4; got != want {
		t.Fatalf("placement order lists %d units, want %d", got, want)
	}
	first := &m.order[0]
	for i, th := range m.Threads() {
		if th.ID != m.order[i] {
			t.Fatalf("thread %d on unit %d, order says %d", i, th.ID, m.order[i])
		}
		if th.Quad == 1 {
			t.Errorf("thread %d placed on the disabled quad", i)
		}
	}
	// Dealt across quads: slot 0 of every quad but 0 (reserved units) and
	// 1 (disabled) comes first.
	quads := map[int]bool{}
	for _, th := range m.Threads()[:30] {
		quads[th.Quad] = true
	}
	if len(quads) != 30 {
		t.Errorf("first 30 balanced threads cover %d quads", len(quads))
	}
	if _, err := m.Spawn(func(*T) {}); err != nil || first != &m.order[0] {
		t.Errorf("a later Spawn rebuilt the placement order (err %v)", err)
	}
}
