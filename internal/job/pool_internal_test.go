package job

import (
	"testing"

	"cyclops/internal/arch"
	"cyclops/internal/asm"
	"cyclops/internal/image"
)

// A result's console output survives the next run on the same pooled chip
// and kernel: the kernel's reset drops its output instead of truncating it,
// so the next program's output cannot overwrite the bytes a result took.
// The second program sits at the first's PCs, so a compiled block the
// machine's reset kept would print the first's number again.
func TestResultOutputSurvivesTheNextRun(t *testing.T) {
	prog := func(src string) *Spec {
		p, err := asm.Assemble(src)
		if err != nil {
			t.Fatal(err)
		}
		return &Spec{Workload: ProgramWorkload, Program: image.Encode(p)}
	}
	first := prog("\tli a0, 2\n\tli a1, 12345\n\tsyscall\n\tli a0, 0\n\tsyscall\n")
	second := prog("\tli a0, 2\n\tli a1, 9\n\tsyscall\n\tli a0, 0\n\tsyscall\n")
	var p chipPool
	run := func(spec *Spec) (*Result, *pooledChip) {
		pc, err := p.get(arch.Default())
		if err != nil {
			t.Fatal(err)
		}
		res, err := runProgram(&RunContext{Spec: spec, Chip: pc.chip, pooled: pc})
		p.put(pc, err == nil)
		if err != nil {
			t.Fatal(err)
		}
		return res, pc
	}
	a, pa := run(first)
	b, pb := run(second)
	if pa != pb || pa.kern == nil {
		t.Fatal("the second run did not get the first run's chip and kernel")
	}
	if string(a.Output) != "12345" || string(b.Output) != "9" {
		t.Errorf("outputs %q and %q, want \"12345\" and \"9\"", a.Output, b.Output)
	}
}

// A chip of the run's shape that cannot be reset to its configuration (an
// invalid one, which a resolved spec never is) is not handed out, and the
// run holds no place in the list.
func TestPoolRefusesAnInvalidConfiguration(t *testing.T) {
	var p chipPool
	pc, err := p.get(arch.Default())
	if err != nil {
		t.Fatal(err)
	}
	p.put(pc, true)
	bad := arch.Default()
	bad.FailedBanks = bad.MemBanks
	if _, err := p.get(bad); err == nil {
		t.Fatal("a chip was reset to an invalid configuration")
	}
	if _, err := p.get(bad); err == nil {
		t.Fatal("a chip was built for an invalid configuration")
	}
	if p.running != 0 {
		t.Errorf("%d runs still counted in flight", p.running)
	}
}
