package workloads

import (
	"fmt"

	"cyclops/internal/job"
	"cyclops/internal/md"
	"cyclops/internal/ray"
	"cyclops/internal/splash"
)

// MDName and RayName are the Section 5 application workloads' spec
// spellings.
const (
	MDName  = "md"
	RayName = "ray"
)

// MDArgs is the canonical argument schema of the "md" workload.
type MDArgs struct {
	Threads  int  `json:"threads"`
	Balanced bool `json:"balanced,omitempty"`
	// Particles is the particle count; Steps the time steps (0 = the
	// kernel default).
	Particles int `json:"particles"`
	Steps     int `json:"steps,omitempty"`
}

// RayArgs is the canonical argument schema of the "ray" workload.
type RayArgs struct {
	Threads  int  `json:"threads"`
	Balanced bool `json:"balanced,omitempty"`
	Width    int  `json:"width"`
	Height   int  `json:"height"`
}

func init() {
	job.Define(MDName, checkMD, runMD)
	job.Define(RayName, checkRay, runRay)
}

func checkMD(a *MDArgs) error {
	if a.Threads < 1 {
		return fmt.Errorf("threads = %d", a.Threads)
	}
	if a.Particles < 1 {
		return fmt.Errorf("particles = %d", a.Particles)
	}
	return nil
}

func runMD(ctx *job.RunContext, a *MDArgs) (*job.Result, error) {
	r, _, err := md.Run(md.Opts{
		Config:     splash.Config{Threads: a.Threads, Balanced: a.Balanced, Chip: ctx.Chip, Issue: ctx.Policy, MaxCycles: ctx.Spec.MaxCycles},
		NParticles: a.Particles,
		Steps:      a.Steps,
	})
	if err != nil {
		return nil, err
	}
	return splashResult(r), nil
}

func checkRay(a *RayArgs) error {
	if a.Threads < 1 {
		return fmt.Errorf("threads = %d", a.Threads)
	}
	if a.Width < 1 || a.Height < 1 {
		return fmt.Errorf("image %dx%d", a.Width, a.Height)
	}
	return nil
}

func runRay(ctx *job.RunContext, a *RayArgs) (*job.Result, error) {
	r, _, err := ray.Render(ray.Opts{
		Config: splash.Config{Threads: a.Threads, Balanced: a.Balanced, Chip: ctx.Chip, Issue: ctx.Policy, MaxCycles: ctx.Spec.MaxCycles},
		Width:  a.Width,
		Height: a.Height,
	})
	if err != nil {
		return nil, err
	}
	return splashResult(r), nil
}

// MDSpec builds the job spec for one molecular-dynamics run.
func MDSpec(a MDArgs) (*job.Spec, error) { return argsSpec(MDName, a) }

// RaySpec builds the job spec for one raytrace run.
func RaySpec(a RayArgs) (*job.Spec, error) { return argsSpec(RayName, a) }
