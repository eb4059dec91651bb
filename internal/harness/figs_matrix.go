package harness

import (
	"fmt"

	"cyclops/internal/harness/sweep"
	"cyclops/internal/job/workloads"
	"cyclops/internal/kernel"
	"cyclops/internal/stream"
	"cyclops/internal/timing"
)

// matrixPolicies is the issue-policy axis of the scenario matrix: the
// paper's fine-grained design against blocked multithreading and the
// switch-on-miss hybrid, both at an 8-cycle pipeline drain/refill.
func matrixPolicies() []timing.Policy {
	return []timing.Policy{
		timing.FineGrain{},
		timing.Blocked{Pen: 8},
		timing.SwitchOnMiss{Pen: 8},
	}
}

// matrixLatencies is the latency axis: the default point (Table 2
// unless -lat moved it) plus a slow-memory point (miss latencies
// doubled), and at Full scale a slow-FPU point (result latencies
// doubled). Rows label each point by its diff from the first.
func matrixLatencies(s Scale) []timing.LatencyModel {
	base := timing.LatenciesOf(Runner.Defaults.Config)
	slowmem := base
	slowmem.LocalMiss *= 2
	slowmem.RemoteMiss *= 2
	pts := []timing.LatencyModel{base, slowmem}
	if s == Full {
		slowfpu := base
		slowfpu.FPU *= 2
		slowfpu.FMA *= 2
		pts = append(pts, slowfpu)
	}
	return pts
}

// Matrix runs the scheduling-policy × latency scenario matrix over one
// workload per execution frontend: STREAM Triad through the
// instruction-level simulator and the FFT kernel (hardware barrier)
// through the direct-execution runtime. Each row reports the run share,
// the per-reason stall shares — including the policies' separately
// attributed context-switch penalty — and the memory-wait attribution,
// making visible which stall buckets each policy trades for switch
// overhead as the memory gets slower.
//
// Policies and latencies are per point: each spec names its policy and
// carries its configuration.
func Matrix(s Scale) (*Table, error) {
	streamThreads, fftThreads, fftN := 4, 8, 1024
	if s == Full {
		streamThreads, fftThreads, fftN = 16, 16, 4096
	}

	t := &Table{
		ID:      "matrix",
		Title:   "Issue policy × latency scenario matrix (% of accounted cycles)",
		Columns: bdColumns("workload", "engine", "policy", "latency", "threads"),
	}

	type point struct {
		workload, engine string
		pol              timing.Policy
		lat              string
		threads          int
		run              func() (bd, error)
	}
	var pts []point
	lats := matrixLatencies(s)
	for _, pol := range matrixPolicies() {
		pol := pol
		for _, model := range lats {
			cfg := model.Apply(Runner.Defaults.Config)
			lat := model.Diff(lats[0])
			pts = append(pts, point{"STREAM Triad", "sim", pol, lat, streamThreads, func() (bd, error) {
				p := stream.Params{
					Kernel: stream.Triad, Threads: streamThreads, N: streamThreads * 1000,
					Local: true, Reps: 2, Issue: pol,
				}
				spec, err := workloads.StreamSpec(p, kernel.Sequential)
				if err != nil {
					return bd{}, err
				}
				spec.Config = &cfg
				r, err := runStreamJob(spec, p)
				if err != nil {
					return bd{}, err
				}
				return bd{r.Run, r.Stall, r.Stalls, r.MemWaits}, nil
			}})
			pts = append(pts, point{"FFT HW barrier", "perf", pol, lat, fftThreads, func() (bd, error) {
				spec, err := workloads.SplashSpec(workloads.SplashArgs{
					Kernel: "fft", Threads: fftThreads, Barrier: "hw", N: fftN,
				})
				if err != nil {
					return bd{}, err
				}
				spec.Config = &cfg
				spec.Policy = pol.String()
				r, err := runSplashJob(spec)
				if err != nil {
					return bd{}, err
				}
				return bd{r.Run, r.Stall, r.Stalls, r.MemWaits}, nil
			}})
		}
	}

	res, err := sweep.Map(pts, func(p point) (bd, error) { return p.run() })
	if err != nil {
		return nil, err
	}
	for i, p := range pts {
		row, err := res[i].row(p.workload, p.engine, p.pol.String(), p.lat, fmt.Sprintf("%d", p.threads))
		if err != nil {
			return nil, err
		}
		t.AddRow(row...)
	}
	t.Note("policy: fine = paper's fine-grained issue; blocked/8 = switch on any stall, 8-cycle penalty; switchmiss/8 = switch on cache miss only")
	t.Note("latency: canonical spec of the swept point (diffs from Table 2); switch %% = context-switch penalty, attributed separately from the triggering wait")
	t.Note("policies and latencies are per-point: rows are reproducible standalone via -policy/-switch-penalty/-lat on cyclops-sim")
	return t, nil
}
