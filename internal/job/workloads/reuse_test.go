package workloads_test

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"

	"cyclops/internal/arch"
	"cyclops/internal/asm"
	"cyclops/internal/image"
	"cyclops/internal/job"
	"cyclops/internal/job/workloads"
	"cyclops/internal/kernel"
	"cyclops/internal/stream"
	"cyclops/internal/timing"
)

// staleRead prints the word at 0x40000, outside its image, then stores
// there and at every 16 KB of the first 1 MB, and runs loadChain's loop.
// On a chip at power-on it prints 0; a chip whose memory Reset failed to
// clear prints what the run before it stored.
const staleRead = `
	li   r16, 0x40000
	lw   r9, 0(r16)
	li   a0, 2		; SysPutInt
	mov  a1, r9
	syscall
	li   r10, 77
	li   r11, 0x100000
	li   r12, 0x4000
fill:	sw   r10, 0(r11)
	sub  r11, r11, r12
	bne  r11, r0, fill
	sw   r10, 0(r16)
	la   r16, data
	li   r8, 50
loop:	lw   r9, 0(r16)
	add  r10, r10, r9
	addi r8, r8, -1
	bne  r8, r0, loop
	li   a0, 0		; SysExit
	syscall
	.align 64
data:	.word 3
`

// reusePoints is one small run of every registered workload and of every
// SPLASH-2 kernel, the program asking for its stats snapshot.
func reusePoints(t testing.TB) []*job.Spec {
	must := func(s *job.Spec, err error) *job.Spec {
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	prog, err := asm.Assemble(staleRead)
	if err != nil {
		t.Fatal(err)
	}
	splash := func(a workloads.SplashArgs) *job.Spec { return must(workloads.SplashSpec(a)) }
	specs := []*job.Spec{
		must(workloads.StreamSpec(stream.Params{Kernel: stream.Triad, Threads: 8, N: 512, Reps: 2}, kernel.Balanced)),
		splash(workloads.SplashArgs{Kernel: "barnes", Threads: 4, Bodies: 64, Steps: 1}),
		splash(workloads.SplashArgs{Kernel: "fft", Threads: 4, N: 256, Barrier: "sw"}),
		splash(workloads.SplashArgs{Kernel: "fmm", Threads: 4, Bodies: 64}),
		splash(workloads.SplashArgs{Kernel: "lu", Threads: 4, N: 32}),
		splash(workloads.SplashArgs{Kernel: "ocean", Threads: 4, N: 18}),
		splash(workloads.SplashArgs{Kernel: "radix", Threads: 4, N: 1024, Barrier: "sw"}),
		must(workloads.MDSpec(workloads.MDArgs{Threads: 8, Particles: 128, Steps: 1})),
		must(workloads.RaySpec(workloads.RayArgs{Threads: 4, Width: 8, Height: 8})),
		must(workloads.MicroBarrierSpec(workloads.MicroBarrierArgs{Threads: 8, Barrier: "sw", Phases: 3})),
		{Workload: job.ProgramWorkload, Program: image.Encode(prog), Outputs: []string{job.SnapshotOutput}},
	}
	seen := map[string]bool{}
	for _, s := range specs {
		seen[s.Workload] = true
	}
	var names []string
	for n := range seen {
		names = append(names, n)
	}
	sort.Strings(names)
	if got, want := strings.Join(names, ","), strings.Join(job.WorkloadNames(), ","); got != want {
		t.Fatalf("these points cover %s; registered workloads are %s", got, want)
	}
	return specs
}

// encoded runs spec on r, returning its result bytes or its error text.
func encoded(r *job.Runner, spec *job.Spec) string {
	res, err := r.ResolveTraced(spec, nil)
	var data []byte
	if err == nil {
		data, _, err = r.RunResolvedTraced(&res, nil)
	}
	if err != nil {
		return "error: " + err.Error()
	}
	return string(data)
}

// TestRecycledChipResultsMatchFresh: every workload's result bytes are the
// same on a chip and kernel an earlier run used and Reset as on new ones.
// On one Runner each point runs after a run that failed, a run cut by its
// cycle limit and a run of a different workload under another issue
// policy and a fault configuration (failed banks and disabled quads),
// whose chip and kernel it gets; then again, on its own; then on that
// fault configuration itself; and each result must equal a fresh Runner's.
func TestRecycledChipResultsMatchFresh(t *testing.T) {
	specs := reusePoints(t)
	failing, err := workloads.SplashSpec(workloads.SplashArgs{Kernel: "radix", Threads: 4, N: 1 << 21})
	if err != nil {
		t.Fatal(err)
	}
	faulty := arch.Default()
	faulty.FailedBanks, faulty.DisabledQuads = 2, 4
	for i, spec := range specs {
		prev := *specs[(i+1)%len(specs)]
		prev.Policy, prev.Config = "blocked/2", &faulty
		onFaulty := *spec
		onFaulty.Config = &faulty
		t.Run(fmt.Sprintf("%s after %s", name(spec), name(&prev)), func(t *testing.T) {
			want, wantFaulty := encoded(job.NewRunner(), spec), encoded(job.NewRunner(), &onFaulty)
			for _, w := range []string{want, wantFaulty} {
				if strings.HasPrefix(w, "error") {
					t.Fatal(w)
				}
				if spec.Workload == job.ProgramWorkload && !strings.Contains(w, `"output":"MA=="`) {
					t.Fatalf("the program read a nonzero stale word on a new chip: %s", w)
				}
			}
			r := job.NewRunner()
			if got := encoded(r, failing); !strings.Contains(got, "exceeds embedded memory") {
				t.Fatalf("the failing run: %s", got)
			}
			limited := prev
			limited.MaxCycles = 200
			if _, err := r.Run(&limited); !errors.Is(err, timing.ErrCycleLimit) {
				t.Fatalf("the cycle-limited run: %v", err)
			}
			if got := encoded(r, &prev); strings.HasPrefix(got, "error") {
				t.Fatal(got)
			}
			for pass := 0; pass < 2; pass++ {
				if got := encoded(r, spec); got != want {
					t.Errorf("pass %d on a recycled chip:\n got  %s\n want %s", pass, got, want)
				}
			}
			if got := encoded(r, &onFaulty); got != wantFaulty {
				t.Errorf("on the recycled chip reset to the fault configuration:\n got  %s\n want %s", got, wantFaulty)
			}
		})
	}
}

// name labels a spec by its workload and, for SPLASH-2, its kernel.
func name(s *job.Spec) string {
	var a workloads.SplashArgs
	if s.Workload == workloads.SplashName && json.Unmarshal(s.Args, &a) == nil {
		return a.Kernel
	}
	return s.Workload
}

// FuzzChipReuse: two specs, each a small point on a configuration the
// input picks (failed banks, disabled quads, off-chip memory, a slower
// miss, an issue policy), run back to back on one Runner; the second's
// result must be what it is on a fresh Runner. A set top bit of cb gives
// the second the first's shape (off-chip memory and miss latency) under
// its own fault configuration and policy, so that it runs on the first's
// chip and kernel, reset to its configuration.
func FuzzChipReuse(f *testing.F) {
	for _, seed := range [][4]uint8{
		{0, 0, 1, 0x80}, {10, 0, 0x15, 0x80}, {2, 6, 0x2a, 0xbf}, {9, 10, 0x7f, 0x80},
		{4, 5, 0x33, 0x0c}, {7, 1, 0xc4, 0x80}, {3, 8, 0x10, 0x91}, {6, 2, 0x08, 0x80},
	} {
		f.Add(seed[0], seed[1], seed[2], seed[3])
	}
	specs := reusePoints(f)
	configure := func(s *job.Spec, c uint8) *job.Spec {
		cfg := arch.Default()
		cfg.FailedBanks = int(c & 3)
		cfg.DisabledQuads = int(c >> 2 & 3)
		if c&0x10 != 0 {
			cfg.OffChipBytes = 1 << 20
		}
		if c&0x20 != 0 {
			cfg.Latencies.LocalMissLatency += 8
		}
		out := *s
		out.Config = &cfg
		out.Policy = [...]string{"fine", "blocked/8", "fine", "blocked/2"}[c>>6]
		return &out
	}
	f.Fuzz(func(t *testing.T, wa, wb, ca, cb uint8) {
		a := configure(specs[int(wa)%len(specs)], ca)
		if cb&0x80 != 0 {
			cb = cb&^0x30 | ca&0x30
		}
		b := configure(specs[int(wb)%len(specs)], cb)
		want := encoded(job.NewRunner(), b)
		r := job.NewRunner()
		encoded(r, a)
		if got := encoded(r, b); got != want {
			t.Errorf("B after A on one Runner:\n got  %s\n want %s", got, want)
		}
	})
}
