package workloads_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"sort"
	"strings"
	"testing"

	"cyclops/internal/arch"
	"cyclops/internal/asm"
	"cyclops/internal/image"
	"cyclops/internal/job"
	"cyclops/internal/job/workloads"
	"cyclops/internal/kernel"
	"cyclops/internal/resultcache"
	"cyclops/internal/sim"
	"cyclops/internal/stream"
	"cyclops/internal/timing"
)

// loadChain is a guest program whose every add waits on a load: it stalls,
// so an issue policy that charges for stalls must move its cycle count.
const loadChain = `
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

// points is one small run per registered workload. stalls marks the ones
// whose threads wait on something a switching policy charges for (the
// hardware-barrier microbenchmark only spins, which counts as run time).
func points(t *testing.T) []struct {
	name   string
	spec   *job.Spec
	stalls bool
} {
	t.Helper()
	must := func(s *job.Spec, err error) *job.Spec {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	prog, err := asm.Assemble(loadChain)
	if err != nil {
		t.Fatal(err)
	}
	pts := []struct {
		name   string
		spec   *job.Spec
		stalls bool
	}{
		{"stream", must(workloads.StreamSpec(stream.Params{
			Kernel: stream.Triad, Threads: 2, N: 128, Reps: 2}, kernel.Sequential)), true},
		{"splash", must(workloads.SplashSpec(workloads.SplashArgs{Kernel: "fft", Threads: 4, N: 256})), true},
		{"md", must(workloads.MDSpec(workloads.MDArgs{Threads: 8, Particles: 512, Steps: 1})), true},
		{"ray", must(workloads.RaySpec(workloads.RayArgs{Threads: 4, Width: 16, Height: 16})), true},
		{"microbarrier", must(workloads.MicroBarrierSpec(workloads.MicroBarrierArgs{Threads: 8, Barrier: "hw", Phases: 4})), false},
		{"program", &job.Spec{Workload: job.ProgramWorkload, Program: image.Encode(prog)}, true},
	}
	var names []string
	for _, p := range pts {
		names = append(names, p.name)
	}
	sort.Strings(names)
	if got, want := strings.Join(names, ","), strings.Join(job.WorkloadNames(), ","); got != want {
		t.Fatalf("this table covers %s; registered workloads are %s", got, want)
	}
	return pts
}

// runOn resolves and runs spec on r, returning its key and result bytes.
func runOn(t *testing.T, r *job.Runner, spec *job.Spec) (string, []byte) {
	t.Helper()
	res, err := r.ResolveTraced(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	data, _, err := r.RunResolvedTraced(&res, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res.ID, data
}

// The spec is the whole input: nothing but the spec — not the Runner it
// is submitted to, and no process state — decides what a fully explicit
// spec runs as, and a blank field means exactly the Runner's default.
func TestSpecIsTheWholeInput(t *testing.T) {
	slow := arch.Default()
	slow.Latencies.LocalMissLatency = 48
	swept := job.NewRunner()
	swept.Defaults = job.Defaults{Policy: timing.Blocked{Pen: 8}, Config: slow}

	for _, p := range points(t) {
		t.Run(p.name, func(t *testing.T) {
			paper := arch.Default()
			explicit := *p.spec
			explicit.Policy, explicit.Config = "fine", &paper
			bareKey, bareData := runOn(t, job.NewRunner(), &explicit)
			sweptKey, sweptData := runOn(t, swept, &explicit)
			if bareKey != sweptKey || !bytes.Equal(bareData, sweptData) {
				t.Errorf("explicit spec depends on the Runner's defaults:\n bare  %s %s\n swept %s %s",
					bareKey, bareData, sweptKey, sweptData)
			}

			spelled := *p.spec
			spelled.Policy, spelled.Config = "blocked/8", &slow
			wantKey, wantData := runOn(t, job.NewRunner(), &spelled)
			gotKey, gotData := runOn(t, swept, p.spec)
			if gotKey != wantKey || !bytes.Equal(gotData, wantData) {
				t.Errorf("blank spec on {blocked/8, miss=48} differs from that spelling on a bare Runner:\n blank   %s %s\n spelled %s %s",
					gotKey, gotData, wantKey, wantData)
			}
			if p.stalls && bytes.Equal(gotData, bareData) {
				t.Errorf("defaults {blocked/8, miss=48} did not move the result: %s", gotData)
			}
		})
	}
}

// Every workload's served result keeps the accounting invariant: its
// threads issued some run cycles, and the per-reason stall buckets sum to
// the stall total.
func TestServedAccounting(t *testing.T) {
	for _, p := range points(t) {
		t.Run(p.name, func(t *testing.T) {
			_, data := runOn(t, job.NewRunner(), p.spec)
			res, err := job.DecodeResult(data)
			if err != nil {
				t.Fatal(err)
			}
			if res.Run == 0 {
				t.Errorf("run = 0 over %d cycles: %s", res.Cycles, data)
			}
			if got := res.Stalls.Total(); got != res.Stall {
				t.Errorf("stall buckets sum to %d, stall = %d: %s", got, res.Stall, data)
			}
		})
	}
}

// The spec's issue policy reaches the machine of every workload: charging
// eight cycles per stall event must cost a run that stalls some cycles.
func TestPolicyReachesTheMachine(t *testing.T) {
	for _, p := range points(t) {
		if !p.stalls {
			continue
		}
		t.Run(p.name, func(t *testing.T) {
			cycles := func(policy string) uint64 {
				spec := *p.spec
				spec.Policy = policy
				res, err := job.NewRunner().Run(&spec)
				if err != nil {
					t.Fatal(err)
				}
				return res.Cycles
			}
			if fine, blocked := cycles("fine"), cycles("blocked/8"); blocked <= fine {
				t.Errorf("blocked/8 = %d cycles, fine = %d: the policy did not reach the machine", blocked, fine)
			}
		})
	}
}

// max_cycles means one thing on every workload: a limit the run passes
// fails it with timing.ErrCycleLimit, and the failure is never cached, so
// the same spec executes again; a limit it never reaches changes nothing
// but the key.
func TestMaxCyclesBoundsEveryWorkload(t *testing.T) {
	for _, p := range points(t) {
		t.Run(p.name, func(t *testing.T) {
			_, free := runOn(t, job.NewRunner(), p.spec)
			res, err := job.DecodeResult(free)
			if err != nil {
				t.Fatal(err)
			}

			r := job.NewRunner()
			r.Cache = resultcache.OpenMemory(0)
			bounded := *p.spec
			bounded.MaxCycles = res.Cycles / 2
			for i := 0; i < 2; i++ {
				if _, err := r.Run(&bounded); !errors.Is(err, timing.ErrCycleLimit) {
					t.Fatalf("run %d under max_cycles %d: %v, want the cycle limit", i, bounded.MaxCycles, err)
				}
			}
			if st := r.Stats(); st.Executions != 2 || st.Errors != 2 {
				t.Errorf("%d executions, %d errors; want 2 of each (a limit failure is never cached)", st.Executions, st.Errors)
			}

			bounded.MaxCycles = 1 << 40
			if _, data := runOn(t, job.NewRunner(), &bounded); !bytes.Equal(data, free) {
				t.Errorf("a limit the run never reaches moved its result:\n bounded %s\n free    %s", data, free)
			}
		})
	}
}

func canonArgs(t *testing.T, spec *job.Spec) string {
	t.Helper()
	c, err := spec.Canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	return string(c.Args)
}

// profile_every is part of the run when set and invisible when not, so
// every key minted before the field existed still names the same run.
func TestProfileEverySchema(t *testing.T) {
	p := stream.Params{Kernel: stream.Copy, Threads: 2, N: 128, Local: true, Reps: 2}
	plain, err := workloads.StreamSpec(p, kernel.Sequential)
	if err != nil {
		t.Fatal(err)
	}
	if args := canonArgs(t, plain); strings.Contains(args, "profile_every") {
		t.Errorf("unprofiled canonical args mention profile_every: %s", args)
	}
	p.ProfileEvery = 64
	profiled, err := workloads.StreamSpec(p, kernel.Sequential)
	if err != nil {
		t.Fatal(err)
	}
	if args := canonArgs(t, profiled); !strings.Contains(args, `"profile_every":64`) {
		t.Errorf("profile_every lost in canonical args: %s", args)
	}
	fft := workloads.SplashArgs{Kernel: "fft", Threads: 4, N: 256}
	splashPlain, _ := workloads.SplashSpec(fft)
	if args := canonArgs(t, splashPlain); strings.Contains(args, "profile_every") || strings.Contains(args, "iters") {
		t.Errorf("plain splash canonical args grew fields: %s", args)
	}
	fft.ProfileEvery = 64
	splashProfiled, _ := workloads.SplashSpec(fft)

	for name, spec := range map[string]*job.Spec{"stream": profiled, "splash": splashProfiled} {
		res, err := job.NewRunner().Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := workloads.ProfileReport(res)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rep.Interval != 64 {
			t.Errorf("%s: report interval = %d, want 64", name, rep.Interval)
		}
	}
	res, err := job.NewRunner().Run(plain)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := workloads.ProfileReport(res); err == nil {
		t.Error("unprofiled result yielded a profile report")
	}
	if strings.Contains(string(res.Extra), "profile") {
		t.Errorf("unprofiled STREAM payload mentions a profile: %s", res.Extra)
	}

	if _, err := (&job.Spec{Workload: "splash",
		Args: json.RawMessage(`{"kernel":"fft","threads":4,"n":256,"iters":2}`)}).Canonicalize(); err == nil {
		t.Error("iters accepted on a kernel other than ocean")
	}
}

// StreamSpec refuses the parameters a spec cannot carry: a timeline is a
// live object no result holds, and a spec names no engine (both give the
// same result; the oracle is Runner.Engine), not even the default one.
func TestStreamSpecRefusals(t *testing.T) {
	block, legacy := sim.EngineBlock, sim.EngineLegacy
	for _, tc := range []struct {
		name string
		edit func(p *stream.Params)
		want string
	}{
		{"timeline", func(p *stream.Params) { p.TimelineEvery = 64 }, "timeline"},
		{"engine block", func(p *stream.Params) { p.Engine = &block }, "names no engine"},
		{"engine legacy", func(p *stream.Params) { p.Engine = &legacy }, "names no engine"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := stream.Params{Kernel: stream.Copy, Threads: 2, N: 128, Local: true, Reps: 2}
			tc.edit(&p)
			_, err := workloads.StreamSpec(p, kernel.Sequential)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("StreamSpec error = %v; want one naming %q", err, tc.want)
			}
		})
	}
}

// A fault configuration must leave something to run on.
func TestFaultConfigBounds(t *testing.T) {
	spec, err := workloads.SplashSpec(workloads.SplashArgs{Kernel: "fft", Threads: 4, N: 256})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		banks, quads int
		ok           bool
	}{
		{0, 0, true}, {15, 31, true}, {16, 0, false}, {0, 32, false}, {-1, 0, false}, {0, -1, false},
	} {
		cfg := arch.Default()
		cfg.FailedBanks, cfg.DisabledQuads = tc.banks, tc.quads
		s := *spec
		s.Config = &cfg
		if _, err := s.Canonicalize(); (err == nil) != tc.ok {
			t.Errorf("%d banks, %d quads down: Canonicalize error = %v, want ok = %t", tc.banks, tc.quads, err, tc.ok)
		}
	}
}
