package kernel

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"cyclops/internal/arch"
	"cyclops/internal/asm"
	"cyclops/internal/core"
	"cyclops/internal/statediff"
)

// printSrc is spawnSrc with main printing the counter before it exits.
var printSrc = strings.Replace(spawnSrc, "\tsw   r10, 0(r11)\n", "\tsw   r10, 0(r11)\n\tli   a0, 2\n\tmov  a1, r10\n\tsyscall\n", 1)

// runPrint boots printSrc on k, over a chip at power-on, under the
// balanced policy and returns the console output and the stats snapshot.
func runPrint(t *testing.T, k *Kernel) string {
	t.Helper()
	p, err := asm.Assemble(printSrc)
	if err != nil {
		t.Fatal(err)
	}
	k.Policy = Balanced
	k.Machine().MaxCycles = 5_000_000
	if err := k.Boot(p); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	var sb bytes.Buffer
	sb.Write(k.Output)
	if err := k.Machine().Snapshot().WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// TestResetKernelEqualsNew: a kernel that spawned, joined and printed under
// the balanced policy with a smaller stack must after Reset equal a new
// kernel over the same chip in every field, its machine's included, once
// both machines have built the same units. The run must leave every field
// but the chip unlike a new kernel's, so a field Reset forgets fails here
// with no edit to this test. A reset kernel over a reset chip then runs
// the program as a new one does.
func TestResetKernelEqualsNew(t *testing.T) {
	chip := core.MustNew(arch.Default())
	k := New(chip)
	k.StackBytes = 4 << 10
	if out := runPrint(t, k); !strings.HasPrefix(out, "55") {
		t.Fatalf("the program printed %.40q, want 55", out)
	}
	fresh := New(chip)
	if same := statediff.Same(fresh, k); !slices.Equal(same, []string{"chip"}) {
		t.Fatalf("the run left fields %v as New has them; only the chip may be", same)
	}
	k.Reset()
	for tid := range chip.Cfg.Threads {
		k.m.Unit(tid)
		fresh.m.Unit(tid)
	}
	if diffs := statediff.Diff(fresh, k); len(diffs) > 0 {
		t.Errorf("Reset left %d fields unlike New's:", len(diffs))
		for _, d := range diffs[:min(len(diffs), 20)] {
			t.Errorf("  %s", d)
		}
	}
	var runs [2]string
	for i, kk := range []*Kernel{k, New(chip)} {
		if err := chip.ResetTo(chip.Cfg); err != nil {
			t.Fatal(err)
		}
		runs[i] = runPrint(t, kk)
	}
	if runs[0] != runs[1] {
		t.Errorf("the reset kernel ran unlike a new one:\n got  %s\n want %s", runs[0], runs[1])
	}
}

// A reset kernel computes its next allocation order into the array the
// last one used, under the policy of its next run, so a kernel reused from
// run to run allocates no order.
func TestResetKernelKeepsItsOrderArray(t *testing.T) {
	chip := core.MustNew(arch.Default())
	k := New(chip)
	runPrint(t, k)
	kept := &k.order[0]
	if err := chip.ResetTo(chip.Cfg); err != nil {
		t.Fatal(err)
	}
	k.Reset()
	if got, want := k.workerOrder(), chip.AppendWorkerOrder(nil, false); !slices.Equal(got, want) {
		t.Errorf("the reset kernel's sequential order is %v, want %v", got, want)
	}
	if &k.order[0] != kept {
		t.Error("the reset kernel allocated a new order array")
	}
	if err := chip.ResetTo(chip.Cfg); err != nil {
		t.Fatal(err)
	}
	k.Reset()
	runPrint(t, k)
	if want := chip.AppendWorkerOrder(nil, true); !slices.Equal(k.order, want) || &k.order[0] != kept {
		t.Errorf("the next run's balanced order is %v in a new array %v, want %v in the kept one", k.order, &k.order[0] != kept, want)
	}
}
