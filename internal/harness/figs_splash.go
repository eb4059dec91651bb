package harness

import (
	"fmt"

	"cyclops/internal/harness/sweep"
	"cyclops/internal/job/workloads"
	"cyclops/internal/splash"
)

// fig3Sizes returns the per-kernel problem sizes.
func fig3Sizes(s Scale) (barnes, fft, fmm, lu, ocean, radix int) {
	if s == Full {
		return 2048, 65536, 4096, 512, 512, 524288
	}
	return 256, 4096, 1024, 128, 64, 16384
}

// fig3Threads returns the thread counts swept, from one thread up.
func fig3Threads(s Scale) []int {
	if s == Full {
		return []int{1, 2, 4, 8, 16, 32, 64, 126}
	}
	return []int{1, 4, 16}
}

// Fig3 reproduces the SPLASH-2 speedup curves.
func Fig3(s Scale) (*Table, error) {
	nBarnes, nFFT, nFMM, nLU, nOcean, nRadix := fig3Sizes(s)
	threads := fig3Threads(s)
	kernels := []struct {
		name string
		args func(t int) workloads.SplashArgs
		max  int // kernel-specific thread ceiling, 0 = none
	}{
		{"Barnes", func(t int) workloads.SplashArgs {
			return workloads.SplashArgs{Kernel: "barnes", Threads: t, Bodies: nBarnes, Steps: 1}
		}, 0},
		{"FFT", func(t int) workloads.SplashArgs {
			return workloads.SplashArgs{Kernel: "fft", Threads: t, N: nFFT}
		}, intSqrtOf(nFFT)},
		{"FMM", func(t int) workloads.SplashArgs {
			return workloads.SplashArgs{Kernel: "fmm", Threads: t, Bodies: nFMM}
		}, 0},
		{"LU", func(t int) workloads.SplashArgs {
			return workloads.SplashArgs{Kernel: "lu", Threads: t, N: nLU}
		}, 0},
		{"Ocean", func(t int) workloads.SplashArgs {
			return workloads.SplashArgs{Kernel: "ocean", Threads: t, N: nOcean}
		}, nOcean},
		{"Radix", func(t int) workloads.SplashArgs {
			return workloads.SplashArgs{Kernel: "radix", Threads: t, N: nRadix}
		}, 0},
	}

	cols := []string{"threads"}
	for _, k := range kernels {
		cols = append(cols, k.name)
	}
	t := &Table{ID: "fig3", Title: "SPLASH-2 parallel speedups", Columns: cols}

	// The whole kernel × thread-count grid fans out over the sweep pool;
	// every point runs on its own chip.
	type cell struct{ ki, tc int }
	pts := make([]cell, 0, len(kernels)*len(threads))
	for _, tc := range threads {
		for i, k := range kernels {
			if k.max != 0 && tc > k.max {
				continue
			}
			pts = append(pts, cell{i, tc})
		}
	}
	res, err := sweep.Map(pts, func(c cell) (*splash.Result, error) {
		spec, err := workloads.SplashSpec(kernels[c.ki].args(c.tc))
		if err != nil {
			return nil, fmt.Errorf("%s threads=%d: %w", kernels[c.ki].name, c.tc, err)
		}
		r, err := runSplashJob(spec)
		if err != nil {
			return nil, fmt.Errorf("%s threads=%d: %w", kernels[c.ki].name, c.tc, err)
		}
		return r, nil
	})
	if err != nil {
		return nil, err
	}
	// The sweep starts at one thread, below every kernel's ceiling, so its
	// first row is the speedup baseline.
	bases, rest := res[:len(kernels)], res
	for _, tc := range threads {
		row := []string{fmt.Sprintf("%d", tc)}
		for i, k := range kernels {
			if k.max != 0 && tc > k.max {
				row = append(row, "-")
				continue
			}
			row = append(row, f2(rest[0].Speedup(bases[i])))
			rest = rest[1:]
		}
		t.AddRow(row...)
	}
	t.Note("problem sizes: Barnes %d bodies, FFT %d pts, FMM %d charges, LU %d^2, Ocean %d^2, Radix %d keys",
		nBarnes, nFFT, nFMM, nLU, nOcean, nRadix)
	t.Note("FFT is bounded by the points-per-processor >= sqrt(n) constraint")
	return t, nil
}

func intSqrtOf(n int) int {
	r := 1
	for (r+1)*(r+1) <= n {
		r++
	}
	return r
}

// fig7Variant builds the two panels of Figure 7.
func fig7Variant(points int) func(Scale) (*Table, error) {
	return func(s Scale) (*Table, error) { return Fig7(points, s) }
}

// Fig7 compares hardware and software barriers on the FFT kernel,
// reporting the relative change in total, run and stall cycles (negative
// bars are improvements, as in the paper).
func Fig7(points int, s Scale) (*Table, error) {
	n := points
	if s == Small && n > 4096 {
		n = 4096
	}
	maxThreads := intSqrtOf(n)
	var threadCounts []int
	for tc := 2; tc <= maxThreads && tc <= 64; tc *= 2 {
		threadCounts = append(threadCounts, tc)
	}
	t := &Table{
		ID:      fmt.Sprintf("fig7-%d", points),
		Title:   fmt.Sprintf("HW vs SW barriers, %d-point FFT (%% change, negative = better)", n),
		Columns: []string{"threads", "total %", "run %", "stall %", "sw cycles", "hw cycles"},
	}
	// Two FFT runs per thread count — software and hardware barriers —
	// all independent, all fanned out together.
	type fftPoint struct {
		tc   int
		kind splash.BarrierKind
	}
	pts := make([]fftPoint, 0, 2*len(threadCounts))
	for _, tc := range threadCounts {
		pts = append(pts, fftPoint{tc, splash.SW}, fftPoint{tc, splash.HW})
	}
	res, err := sweep.Map(pts, func(p fftPoint) (*splash.Result, error) {
		spec, err := workloads.SplashSpec(workloads.SplashArgs{
			Kernel: "fft", Threads: p.tc, Barrier: p.kind.String(), N: n,
		})
		if err != nil {
			return nil, err
		}
		return runSplashJob(spec)
	})
	if err != nil {
		return nil, err
	}
	for i, tc := range threadCounts {
		sw, hw := res[2*i], res[2*i+1]
		pct := func(hwV, swV uint64) string {
			if swV == 0 {
				return "-"
			}
			return f1(100 * (float64(hwV) - float64(swV)) / float64(swV))
		}
		t.AddRow(fmt.Sprintf("%d", tc),
			pct(hw.Cycles, sw.Cycles), pct(hw.Run, sw.Run), pct(hw.Stall, sw.Stall),
			fmt.Sprintf("%d", sw.Cycles), fmt.Sprintf("%d", hw.Cycles))
	}
	t.Note("paper: run cycles rise (spinning on the SPR is cheap work), stalls drop sharply;")
	t.Note("total improves ~10%% for 256 points at 16 threads, ~5%% for 64K points at 64 threads")
	return t, nil
}

// MicroBarrier measures raw barrier cost: threads do nothing but
// synchronise, so the per-barrier latency is total/phases.
func MicroBarrier(s Scale) (*Table, error) {
	phases := 20
	counts := []int{2, 8, 32}
	if s == Full {
		counts = []int{2, 4, 8, 16, 32, 64, 126}
	}
	t := &Table{
		ID:      "microbarrier",
		Title:   "Barrier latency (cycles per barrier, no work between)",
		Columns: []string{"threads", "hw", "sw tree"},
	}
	type barrierPoint struct {
		n    int
		kind splash.BarrierKind
	}
	pts := make([]barrierPoint, 0, 2*len(counts))
	for _, n := range counts {
		pts = append(pts, barrierPoint{n, splash.HW}, barrierPoint{n, splash.SW})
	}
	res, err := sweep.Map(pts, func(p barrierPoint) (uint64, error) {
		spec, err := workloads.MicroBarrierSpec(workloads.MicroBarrierArgs{
			Threads: p.n, Barrier: p.kind.String(), Phases: phases,
		})
		if err != nil {
			return 0, err
		}
		r, err := Runner.Run(spec)
		if err != nil {
			return 0, err
		}
		// The workload reports total elapsed cycles; the table shows the
		// per-barrier cost.
		return r.Cycles / uint64(phases), nil
	})
	if err != nil {
		return nil, err
	}
	for i, n := range counts {
		t.AddRow(fmt.Sprintf("%d", n), fmt.Sprintf("%d", res[2*i]), fmt.Sprintf("%d", res[2*i+1]))
	}
	t.Note("hardware barrier cost is a small constant; the software tree grows with depth and memory contention")
	return t, nil
}
