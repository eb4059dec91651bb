package workloads

import (
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

func init() { job.Define(MicroBarrierName, checkMicroBarrier, runMicroBarrier) }

func checkMicroBarrier(a *MicroBarrierArgs) error {
	if a.Threads < 1 {
		return fmt.Errorf("threads = %d", a.Threads)
	}
	if a.Phases < 1 {
		return fmt.Errorf("phases = %d", a.Phases)
	}
	kind, err := splash.ParseBarrier(a.Barrier)
	if err != nil {
		return err
	}
	a.Barrier = kind.String()
	return nil
}

func runMicroBarrier(ctx *job.RunContext, a *MicroBarrierArgs) (*job.Result, error) {
	kind, err := splash.ParseBarrier(a.Barrier)
	if err != nil {
		return nil, err
	}
	m, err := splash.Config{Threads: a.Threads, Chip: ctx.Chip, Issue: ctx.Policy, MaxCycles: ctx.Spec.MaxCycles}.Machine()
	if err != nil {
		return nil, err
	}
	b, err := splash.NewBarrier(m, a.Threads, kind)
	if err != nil {
		return nil, err
	}
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
func MicroBarrierSpec(a MicroBarrierArgs) (*job.Spec, error) { return argsSpec(MicroBarrierName, a) }
