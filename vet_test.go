package cyclops_test

import (
	"os"
	"strings"
	"testing"

	"cyclops/internal/arch"
	"cyclops/internal/asm"
	"cyclops/internal/core"
	"cyclops/internal/kernel"
	"cyclops/internal/stream"
	"cyclops/internal/vet"
)

// The faulty fixtures are the analyzer's showcase: one source per pass
// under examples/faulty/vet/, each seeded with exactly the bug family
// its pass detects. This test is also the coverage assertion — a pass
// added to vet.Passes without a fixture fails here — and the golden
// check pins the exact rendered diagnostics byte-for-byte.
func TestVetFixturesGolden(t *testing.T) {
	var rendered strings.Builder
	for _, pass := range vet.Passes {
		path := "examples/faulty/vet/" + pass.ID + ".s"
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("pass %q has no fixture: %v", pass.ID, err)
		}
		p, err := asm.AssembleNamed(path, string(data))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		diags := vet.Check(p)
		if len(diags) == 0 {
			t.Errorf("%s: no diagnostics; the fixture must trigger pass %q", path, pass.ID)
		}
		for _, d := range diags {
			if d.Pass != pass.ID {
				t.Errorf("%s: stray %q diagnostic: %s", path, d.Pass, d)
			}
		}
		rendered.WriteString(vet.Render(diags))
	}
	golden, err := os.ReadFile("examples/faulty/vet/golden.txt")
	if err != nil {
		t.Fatalf("golden file: %v", err)
	}
	if rendered.String() != string(golden) {
		t.Errorf("diagnostics diverge from golden.txt:\n--- got ---\n%s--- want ---\n%s",
			rendered.String(), golden)
	}
}

// vetCleanSource checks one shipped program for error-severity findings;
// warnings are logged (the out-of-core example legitimately warns: a
// release-only barrier arrival before exit, plus the done-flag handshake
// and the atomic-vs-final-read pairs the race pass cannot prove ordered).
func vetCleanSource(t *testing.T, name, src string) {
	t.Helper()
	p, err := asm.AssembleNamed(name, src)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	for _, d := range vet.Check(p) {
		if d.Sev == vet.Error {
			t.Errorf("%s: %s", name, d)
		} else {
			t.Logf("%s: %s", name, d)
		}
	}
}

// Every program the repo generates or ships must be vet-clean at error
// severity: the full STREAM generator matrix at tiny sizes plus the
// assembly-embedding examples. (The splash kernels are direct-execution
// Go; they have no assembly for vet to read.)
func TestVetGeneratedPrograms(t *testing.T) {
	for _, k := range stream.Kernels {
		for _, part := range []stream.Partition{stream.Blocked, stream.Cyclic} {
			for _, unroll := range []int{1, 4} {
				if unroll > 1 && part == stream.Cyclic {
					continue // the paper unrolls only the blocked variants
				}
				for _, local := range []bool{false, true} {
					if local && part == stream.Cyclic {
						continue // cyclic needs the shared cache mode
					}
					par := stream.Params{
						Kernel: k, N: 128, Threads: 4,
						Partition: part, Unroll: unroll, Local: local,
					}
					name := strings.ToLower(k.String()) + "-" + part.String()
					src, err := stream.Generate(par)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					vetCleanSource(t, name+".s", src)
				}
			}
		}
		// The Figure 4b independent variant has its own code shape.
		src, err := stream.Generate(stream.Params{
			Kernel: k, N: 64, Threads: 4, Independent: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		vetCleanSource(t, strings.ToLower(k.String())+"-independent.s", src)
	}

	// The profiled STREAM smoke's program (ci/gen_stream.go): the
	// profile table's point at its full size.
	src, err := stream.Generate(stream.Params{
		Kernel: stream.Triad, Threads: 8, N: 4032, Local: true, Reps: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	vetCleanSource(t, "stream_triad.s", src)

	for _, dir := range []string{"quickstart", "outofcore"} {
		vetCleanSource(t, dir+".s", exampleSrc(t, dir))
	}
}

// The diagnostics must not depend on test parallelism or run order: the
// same fixture checked concurrently from many goroutines renders
// identically every time. The concurrency fixtures matter most here —
// the inter-thread model walks maps of roots, accesses and phases that
// must all be emitted in deterministic order.
func TestVetParallelDeterminism(t *testing.T) {
	for _, name := range []string{"spr.s", "race.s", "barrier.s", "deadlock.s"} {
		data, err := os.ReadFile("examples/faulty/vet/" + name)
		if err != nil {
			t.Fatal(err)
		}
		p, err := asm.AssembleNamed(name, string(data))
		if err != nil {
			t.Fatal(err)
		}
		want := vet.Render(vet.Check(p))
		for i := 0; i < 8; i++ {
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				for j := 0; j < 25; j++ {
					if got := vet.Render(vet.Check(p)); got != want {
						t.Fatalf("render diverged:\n%s\nvs\n%s", got, want)
					}
				}
			})
		}
	}
}

// The motivating concurrency scenario (EXPERIMENTS.md "Vet-conc"): a
// barrier microbenchmark whose workers accumulate into a shared total
// with a plain load/add/store — a true data race that runs to a clean
// exit and silently prints 1 instead of 3 (two increments lost). The
// race pass flags it statically; rewriting the update as the paper's
// in-memory amoadd makes it clean and correct.
const racyAccumulateSrc = `
_start:	li   r20, 3
sploop:	li   a0, 3
	la   a1, worker
	mov  a2, r20
	syscall
	addi r20, r20, -1
	bne  r20, r0, sploop
	li   r8, 2
	mtspr r8, 4
bs:	mfspr r9, 4
	andi r9, r9, 1
	bne  r9, r0, bs
	la   r8, total
	lw   a1, 0(r8)
	li   a0, 2
	syscall
	li   a0, 0
	syscall
worker:	la   r10, total
	lw   r11, 0(r10)
	addi r11, r11, 1
	sw   r11, 0(r10)
	li   r12, 2
	mtspr r12, 4
ws:	mfspr r13, 4
	andi r13, r13, 1
	bne  r13, r0, ws
	li   a0, 0
	syscall
	.align 8
total:	.word 0
`

// runOutput boots a program on a default chip and returns its console
// output — the dynamic half of the Vet-conc demonstration.
func runOutput(t *testing.T, p *asm.Program) string {
	t.Helper()
	chip, err := core.NewChip(arch.Default())
	if err != nil {
		t.Fatal(err)
	}
	k := kernel.New(chip)
	k.Machine().MaxCycles = 5_000_000
	if err := k.Boot(p); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	return string(k.Output)
}

func TestSeededRaceCaught(t *testing.T) {
	p, err := asm.AssembleNamed("racy.s", racyAccumulateSrc)
	if err != nil {
		t.Fatal(err)
	}
	// The racy program is not broken enough for the simulator to notice:
	// it runs to a clean exit and prints the silently-wrong 1 (all three
	// workers load total while it is still zero; two increments lost).
	if got := runOutput(t, p); got != "1" {
		t.Errorf("racy variant printed %q; EXPERIMENTS.md documents the lost-update result 1", got)
	}
	diags := vet.Check(p)
	if !vet.HasErrors(diags) {
		t.Fatalf("seeded race not caught:\n%s", vet.Render(diags))
	}
	found := false
	for _, d := range diags {
		if d.Pass == "race" && d.Sev == vet.Error &&
			strings.Contains(d.Msg, "total") && strings.Contains(d.Msg, "spawned at") {
			found = true
		}
	}
	if !found {
		t.Errorf("no race error naming total and the spawn site:\n%s", vet.Render(diags))
	}

	// The fix: one amoadd instead of the load/add/store triple.
	fixed := strings.Replace(racyAccumulateSrc,
		"	lw   r11, 0(r10)\n	addi r11, r11, 1\n	sw   r11, 0(r10)\n",
		"	li   r11, 1\n	amoadd r11, (r10), r11\n", 1)
	if fixed == racyAccumulateSrc {
		t.Fatal("fix replacement did not apply; update the seeded source")
	}
	pf, err := asm.AssembleNamed("fixed.s", fixed)
	if err != nil {
		t.Fatal(err)
	}
	if diags := vet.Check(pf); len(diags) != 0 {
		t.Errorf("atomic variant produced diagnostics:\n%s", vet.Render(diags))
	}
	if got := runOutput(t, pf); got != "3" {
		t.Errorf("atomic variant printed %q, want %q", got, "3")
	}
}
