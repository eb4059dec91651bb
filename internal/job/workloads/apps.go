package workloads

import (
	"encoding/json"
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
	job.Register(job.Workload{
		Name:  MDName,
		Canon: canonMD,
		Run:   runMD,
	})
	job.Register(job.Workload{
		Name:  RayName,
		Canon: canonRay,
		Run:   runRay,
	})
}

func canonMD(args json.RawMessage) (json.RawMessage, error) {
	var a MDArgs
	if err := strict(args, &a); err != nil {
		return nil, err
	}
	if a.Threads < 1 {
		return nil, fmt.Errorf("threads = %d", a.Threads)
	}
	if a.Particles < 1 {
		return nil, fmt.Errorf("particles = %d", a.Particles)
	}
	return json.Marshal(a)
}

func runMD(ctx *job.RunContext) (*job.Result, error) {
	var a MDArgs
	if err := strict(ctx.Spec.Args, &a); err != nil {
		return nil, err
	}
	chip, err := chipFor(ctx)
	if err != nil {
		return nil, err
	}
	r, _, err := md.Run(md.Opts{
		Config:     splash.Config{Threads: a.Threads, Balanced: a.Balanced, Chip: chip, Issue: ctx.Policy, MaxCycles: ctx.Spec.MaxCycles},
		NParticles: a.Particles,
		Steps:      a.Steps,
	})
	if err != nil {
		return nil, err
	}
	return splashResult(r), nil
}

func canonRay(args json.RawMessage) (json.RawMessage, error) {
	var a RayArgs
	if err := strict(args, &a); err != nil {
		return nil, err
	}
	if a.Threads < 1 {
		return nil, fmt.Errorf("threads = %d", a.Threads)
	}
	if a.Width < 1 || a.Height < 1 {
		return nil, fmt.Errorf("image %dx%d", a.Width, a.Height)
	}
	return json.Marshal(a)
}

func runRay(ctx *job.RunContext) (*job.Result, error) {
	var a RayArgs
	if err := strict(ctx.Spec.Args, &a); err != nil {
		return nil, err
	}
	chip, err := chipFor(ctx)
	if err != nil {
		return nil, err
	}
	r, _, err := ray.Render(ray.Opts{
		Config: splash.Config{Threads: a.Threads, Balanced: a.Balanced, Chip: chip, Issue: ctx.Policy, MaxCycles: ctx.Spec.MaxCycles},
		Width:  a.Width,
		Height: a.Height,
	})
	if err != nil {
		return nil, err
	}
	return splashResult(r), nil
}

// MDSpec builds the job spec for one molecular-dynamics run.
func MDSpec(a MDArgs) (*job.Spec, error) {
	args, err := json.Marshal(a)
	if err != nil {
		return nil, err
	}
	return &job.Spec{Workload: MDName, Args: args}, nil
}

// RaySpec builds the job spec for one raytrace run.
func RaySpec(a RayArgs) (*job.Spec, error) {
	args, err := json.Marshal(a)
	if err != nil {
		return nil, err
	}
	return &job.Spec{Workload: RayName, Args: args}, nil
}
