package harness

import (
	"fmt"

	"cyclops/internal/harness/sweep"
	"cyclops/internal/job"
	"cyclops/internal/job/workloads"
	"cyclops/internal/splash"
)

// Apps runs the Section 5 target-application trio — molecular dynamics,
// raytracing, and linear algebra (LU) — across thread counts. This is an
// extension beyond the paper's figures: the conclusion names these
// workloads as what Cyclops is for, and this table shows how each class
// behaves on the chip (barrier-phased MD, embarrassingly parallel rays,
// dependence-structured LU).
func Apps(s Scale) (*Table, error) {
	mdN, rayW, rayH, luN := 512, 64, 48, 128
	threads := []int{1, 4, 16}
	if s == Full {
		mdN, rayW, rayH, luN = 4096, 160, 120, 512
		threads = []int{1, 4, 16, 64, 120}
	}
	t := &Table{
		ID:      "apps",
		Title:   "Section 5 target applications: speedups (balanced placement)",
		Columns: []string{"threads", "MD", "Raytrace", "LU"},
	}
	// One point per (thread count, application); the sweep starts at one
	// thread, so its first triple is the speedup baseline.
	type appPoint struct{ tc, app int }
	pts := make([]appPoint, 0, 3*len(threads))
	for _, tc := range threads {
		for app := 0; app < 3; app++ {
			pts = append(pts, appPoint{tc, app})
		}
	}
	res, err := sweep.Map(pts, func(p appPoint) (*splash.Result, error) {
		var spec *job.Spec
		var err error
		var name string
		switch p.app {
		case 0:
			name = "md"
			spec, err = workloads.MDSpec(workloads.MDArgs{
				Threads: p.tc, Balanced: true, Particles: mdN, Steps: 1,
			})
		case 1:
			name = "ray"
			spec, err = workloads.RaySpec(workloads.RayArgs{
				Threads: p.tc, Balanced: true, Width: rayW, Height: rayH,
			})
		default:
			name = "lu"
			spec, err = workloads.SplashSpec(workloads.SplashArgs{
				Kernel: "lu", Threads: p.tc, Balanced: true, N: luN,
			})
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		r, err := runSplashJob(spec)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		return r, nil
	})
	if err != nil {
		return nil, err
	}
	baseMD, baseRay, baseLU := res[0], res[1], res[2]
	for i, tc := range threads {
		m, r, l := res[3*i], res[3*i+1], res[3*i+2]
		t.AddRow(fmt.Sprintf("%d", tc),
			f2(m.Speedup(baseMD)), f2(r.Speedup(baseRay)), f2(l.Speedup(baseLU)))
	}
	t.Note("MD %d particles, raytrace %dx%d, LU %d^2; rays are barrier-free and scale furthest",
		mdN, rayW, rayH, luN)
	return t, nil
}
