package sim

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"cyclops/internal/arch"
	"cyclops/internal/asm"
	"cyclops/internal/core"
	"cyclops/internal/prof"
	"cyclops/internal/statediff"
	"cyclops/internal/timing"
)

// resetRun boots spinProgram on m, at power-on over its chip: eight units
// meet at the barrier three times, seven of them parking while the eighth
// works, one unit sleeps past the wheel's horizon, one stores into a spin
// loop's text, and one traps while the others are parked, ending the run.
func resetRun(t *testing.T, m *Machine) error {
	t.Helper()
	p, err := asm.Assemble(spinProgram)
	if err != nil {
		t.Fatal(err)
	}
	m.Kernel = &spinKernel{text: p.Symbols["s0"]}
	if err := m.Chip.LoadImage(p.Origin, p.Bytes); err != nil {
		t.Fatal(err)
	}
	start := func(tid int, role, work, arg uint32) {
		r := &m.Unit(tid).Regs
		r[20], r[21], r[22], r[23], r[24] = uint32(tid), 3, role, work, arg
		if role == roleSpin {
			m.Chip.Barrier.Write(tid, 1)
		}
		if err := m.Start(tid, p.Entry); err != nil {
			t.Fatal(err)
		}
	}
	for tid := 2; tid < 9; tid++ {
		start(tid, roleSpin, uint32(tid), 0)
	}
	start(9, roleSpin, 3000, 0) // the others wait for it
	start(10, roleSleep, 5, 3*wheelSlots)
	start(11, roleStore, 40, 0)
	start(12, roleTrap, 600, 0)
	return m.Run()
}

// TestResetMachineEqualsNew: a machine that ran a program which parked
// units at a barrier, overflowed the wheel, flushed compiled blocks and
// trapped, under a blocked issue policy with a timeline, a wake observer
// and then a profiler and a tracer attached, must after Reset equal a new
// machine over the same chip in every field, exported or not, once both
// have built the same units. The walk is by reflection and the run must
// leave every field unlike a new machine's (only New's arguments are
// shared), so a field Reset forgets fails here with no edit to this test.
// A reset machine over a reset chip then runs the program as a new one
// does.
func TestResetMachineEqualsNew(t *testing.T) {
	chip := core.MustNew(arch.Default())
	m := New(chip, nil)
	pol, err := ParsePolicy("blocked", 4)
	if err != nil {
		t.Fatal(err)
	}
	m.SetPolicy(pol)
	m.MaxCycles = 1_000_000
	m.AttachTimeline(prof.NewTimeline(500))
	var seen spinSeen
	seen.watch(m)
	err = resetRun(t, m)
	if err == nil || !strings.Contains(err.Error(), "traps") || errors.Is(err, timing.ErrCycleLimit) {
		t.Fatalf("the run ended with %v, want the trap", err)
	}
	if st := m.SchedStats(); st.Parks == 0 || st.Overflow == 0 || seen.why[wakeTrap] == 0 {
		t.Fatalf("the run parked %d units, overflowed %d times and woke %d times at the trap; want all three",
			st.Parks, st.Overflow, seen.why[wakeTrap])
	}
	// What the run leaves as New has it: the observers a run never sets,
	// the engine it cannot switch mid-run, and the transient parking and
	// batch state every run ends without.
	m.AttachProfile(prof.New(7))
	m.Trace = NewTraceBuffer(16)
	m.engine = EngineLegacy
	m.parked, m.inlineMax, m.iterN = 2, 9, 5
	m.joiners = append(m.joiners, m.Unit(3))
	m.issuing = m.Unit(4)
	m.park.byte, m.park.groups = 1, append(m.park.groups, spinGroup{period: 3, due: 5})
	m.park.list = append(m.park.list, m.Unit(5))

	fresh := New(chip, m.Kernel)
	if same := statediff.Same(fresh, m); !slices.Equal(same, []string{"Chip", "Kernel", "mem", "bar"}) {
		t.Fatalf("the run left fields %v as New has them; only New's arguments may be", same)
	}
	built := m.BuiltUnits()
	m.Reset()
	if fresh.BuiltUnits() != 0 || built == 0 || m.BuiltUnits() != built {
		t.Errorf("a new machine built %d units; the run built %d and the reset machine keeps %d", fresh.BuiltUnits(), built, m.BuiltUnits())
	}
	for tid := range chip.Cfg.Threads {
		m.Unit(tid)
		fresh.Unit(tid)
	}
	if diffs := statediff.Diff(fresh, m); len(diffs) > 0 {
		t.Errorf("Reset left %d fields unlike New's:", len(diffs))
		for _, d := range diffs[:min(len(diffs), 20)] {
			t.Errorf("  %s", d)
		}
	}

	// Both over a reset chip, the reset machine and a new one run alike.
	var runs [2]string
	for i, mm := range []*Machine{m, New(chip, nil)} {
		if err := chip.ResetTo(chip.Cfg); err != nil {
			t.Fatal(err)
		}
		mm.SetPolicy(pol)
		err := resetRun(t, mm)
		runs[i] = diffState(mm, err)
	}
	if runs[0] != runs[1] {
		t.Errorf("the reset machine ran unlike a new one:\n%s", firstDiff(runs[0], runs[1]))
	}
}
