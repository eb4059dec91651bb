package workloads

import (
	"encoding/json"
	"fmt"

	"cyclops/internal/job"
	"cyclops/internal/splash"
)

// SplashName is the SPLASH-2 workload's spec spelling.
const SplashName = "splash"

// SplashArgs is the canonical argument schema of the "splash" workload.
// Problem sizes use the field matching the kernel: N for fft/lu/ocean/
// radix, Bodies (plus Steps) for barnes, Bodies for fmm. Zero sub-option
// fields (Steps for barnes, Iters for ocean) take the kernel's own
// default.
type SplashArgs struct {
	// Kernel is barnes, fft, fmm, lu, ocean or radix.
	Kernel  string `json:"kernel"`
	Threads int    `json:"threads"`
	// Barrier is hw or sw.
	Barrier  string `json:"barrier"`
	Balanced bool   `json:"balanced,omitempty"`
	// N is the problem size of the grid/array kernels.
	N int `json:"n,omitempty"`
	// Bodies is the particle count of the n-body kernels.
	Bodies int `json:"bodies,omitempty"`
	// Steps is the barnes time-step count (0 = kernel default).
	Steps int `json:"steps,omitempty"`
	// Levels is the fmm quadtree depth (0 = kernel default).
	Levels int `json:"levels,omitempty"`
	// Iters is the ocean relaxation sweep count (0 = kernel default).
	Iters int `json:"iters,omitempty"`
	// ProfileEvery, when nonzero, samples the guest profiler every N
	// cycles per thread; the report over the kernel's T.Region phases
	// rides in the result (see ProfileReport).
	ProfileEvery uint64 `json:"profile_every,omitempty"`
}

func init() { job.Define(SplashName, checkSplash, runSplash) }

// splashNBody reports whether the kernel sizes itself with Bodies.
func splashNBody(kernel string) (nbody, ok bool) {
	switch kernel {
	case "barnes", "fmm":
		return true, true
	case "fft", "lu", "ocean", "radix":
		return false, true
	}
	return false, false
}

func checkSplash(a *SplashArgs) error {
	nbody, ok := splashNBody(a.Kernel)
	if !ok {
		return fmt.Errorf("kernel %q (want barnes, fft, fmm, lu, ocean or radix)", a.Kernel)
	}
	if a.Threads < 1 {
		return fmt.Errorf("threads = %d", a.Threads)
	}
	barrier, err := splash.ParseBarrier(a.Barrier)
	if err != nil {
		return err
	}
	a.Barrier = barrier.String()
	if nbody && (a.Bodies < 1 || a.N != 0) {
		return fmt.Errorf("%s takes bodies, not n", a.Kernel)
	}
	if !nbody && (a.N < 1 || a.Bodies != 0) {
		return fmt.Errorf("%s takes n, not bodies", a.Kernel)
	}
	if a.Kernel != "barnes" && a.Steps != 0 {
		return fmt.Errorf("steps applies to barnes only")
	}
	if a.Kernel != "fmm" && a.Levels != 0 {
		return fmt.Errorf("levels applies to fmm only")
	}
	if a.Kernel != "ocean" && a.Iters != 0 {
		return fmt.Errorf("iters applies to ocean only")
	}
	// A negative count would run no step at all (and be cached so); 0 is
	// the kernel's default.
	if a.Steps < 0 {
		return fmt.Errorf("steps = %d (want 0 for the default, or more)", a.Steps)
	}
	if a.Iters < 0 {
		return fmt.Errorf("iters = %d (want 0 for the default, or more)", a.Iters)
	}
	if a.Kernel == "fmm" {
		_, err := splash.FMMLevels(a.Bodies, a.Levels)
		return err
	}
	return nil
}

func runSplash(ctx *job.RunContext, a *SplashArgs) (*job.Result, error) {
	barrier, err := splash.ParseBarrier(a.Barrier)
	if err != nil {
		return nil, err
	}
	cfg := splash.Config{
		Threads:      a.Threads,
		Barrier:      barrier,
		Balanced:     a.Balanced,
		Chip:         ctx.Chip,
		Issue:        ctx.Policy,
		ProfileEvery: a.ProfileEvery,
		MaxCycles:    ctx.Spec.MaxCycles,
	}
	var r *splash.Result
	switch a.Kernel {
	case "barnes":
		r, err = splash.RunBarnes(splash.BarnesOpts{Config: cfg, NBodies: a.Bodies, Steps: a.Steps})
	case "fft":
		r, err = splash.RunFFT(splash.FFTOpts{Config: cfg, N: a.N})
	case "fmm":
		r, err = splash.RunFMM(splash.FMMOpts{Config: cfg, NBodies: a.Bodies, Levels: a.Levels})
	case "lu":
		r, err = splash.RunLU(splash.LUOpts{Config: cfg, N: a.N})
	case "ocean":
		r, err = splash.RunOcean(splash.OceanOpts{Config: cfg, N: a.N, Iters: a.Iters})
	case "radix":
		r, err = splash.RunRadix(splash.RadixOpts{Config: cfg, N: a.N})
	default:
		return nil, fmt.Errorf("kernel %q", a.Kernel)
	}
	if err != nil {
		return nil, err
	}
	res := splashResult(r)
	if r.Profile != nil {
		res.Extra, err = json.Marshal(profileExtra{r.Profile.Report(r.Regions)})
	}
	return res, err
}

// SplashSpec builds the job spec for one SPLASH-2 kernel run.
func SplashSpec(a SplashArgs) (*job.Spec, error) { return argsSpec(SplashName, a) }
