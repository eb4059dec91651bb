package workloads

import (
	"encoding/json"
	"fmt"

	"cyclops/internal/job"
	"cyclops/internal/perf"
	"cyclops/internal/splash"
)

// MicroBarrierName is the barrier microbenchmark's spec spelling.
const MicroBarrierName = "microbarrier"

// MicroBarrierArgs is the canonical argument schema of the
// "microbarrier" workload: threads doing nothing but synchronising for
// Phases barriers. The result's Cycles is the total elapsed time;
// divide by Phases for the per-barrier latency.
type MicroBarrierArgs struct {
	Threads int `json:"threads"`
	// Barrier is hw or sw.
	Barrier string `json:"barrier"`
	Phases  int    `json:"phases"`
}

func init() {
	job.Register(job.Workload{
		Name:  MicroBarrierName,
		Canon: canonMicroBarrier,
		Run:   runMicroBarrier,
	})
}

func canonMicroBarrier(args json.RawMessage) (json.RawMessage, error) {
	var a MicroBarrierArgs
	if err := strict(args, &a); err != nil {
		return nil, err
	}
	if a.Threads < 1 {
		return nil, fmt.Errorf("threads = %d", a.Threads)
	}
	if a.Phases < 1 {
		return nil, fmt.Errorf("phases = %d", a.Phases)
	}
	if _, err := parseBarrier(a.Barrier); err != nil {
		return nil, err
	}
	if a.Barrier == "" {
		a.Barrier = "hw"
	}
	return json.Marshal(a)
}

func runMicroBarrier(ctx *job.RunContext) (*job.Result, error) {
	var a MicroBarrierArgs
	if err := strict(ctx.Spec.Args, &a); err != nil {
		return nil, err
	}
	kind, err := parseBarrier(a.Barrier)
	if err != nil {
		return nil, err
	}
	chip, err := chipFor(ctx)
	if err != nil {
		return nil, err
	}
	m, err := splash.Config{Threads: a.Threads, Chip: chip, Issue: ctx.Policy, MaxCycles: ctx.Spec.MaxCycles}.Machine()
	if err != nil {
		return nil, err
	}
	b := splash.NewBarrier(m, a.Threads, kind)
	err = m.SpawnN(a.Threads, func(th *perf.T, i int) {
		for p := 0; p < a.Phases; p++ {
			b.Wait(th, i)
		}
	})
	if err != nil {
		return nil, err
	}
	if err := m.Run(); err != nil {
		return nil, err
	}
	problem := fmt.Sprintf("%d phases, %s barriers", a.Phases, kind)
	return splashResult(splash.NewResult("MicroBarrier", problem, a.Threads, m)), nil
}

// MicroBarrierSpec builds the job spec for one barrier measurement.
func MicroBarrierSpec(a MicroBarrierArgs) (*job.Spec, error) {
	args, err := json.Marshal(a)
	if err != nil {
		return nil, err
	}
	return &job.Spec{Workload: MicroBarrierName, Args: args}, nil
}
