package harness

import (
	"fmt"

	"cyclops/internal/arch"
	"cyclops/internal/harness/sweep"
	"cyclops/internal/job/workloads"
	"cyclops/internal/kernel"
	"cyclops/internal/link"
	"cyclops/internal/stream"
)

// Fault quantifies the Section 5 future-work behaviour: STREAM Triad
// bandwidth as banks fail and quads are disabled. The paper promises the
// chip "is expected to function even with broken components"; this table
// shows how gracefully.
func Fault(s Scale) (*Table, error) {
	perThread := 504
	if s == Full {
		perThread = 1000
	}
	t := &Table{
		ID:      "fault",
		Title:   "Degraded-chip STREAM Triad (Section 5 fault tolerance)",
		Columns: []string{"banks down", "quads down", "threads", "memory MB", "GB/s", "% of healthy"},
	}
	faults := []struct{ banks, quads int }{
		{0, 0}, {1, 0}, {2, 0}, {4, 0}, {0, 4}, {0, 8}, {4, 8},
	}
	// A fault is boot-time configuration, so each row is one more
	// config-override point (as in figs_ablate.go); the threads that
	// survive and the memory left follow from the configuration alone.
	pts := make([]streamPoint, len(faults))
	for i, f := range faults {
		cfg := Runner.Defaults.Config
		cfg.FailedBanks, cfg.DisabledQuads = f.banks, f.quads
		threads := (cfg.Quads()-f.quads)*cfg.ThreadsPerQuad - cfg.ReservedThreads
		n := perThread * threads
		n -= n % (8 * threads)
		pts[i] = streamPoint{stream.Params{
			Kernel: stream.Triad, Threads: threads, N: n,
			Local: true, Unroll: 4, Reps: 2,
		}, kernel.Sequential, &cfg}
	}
	res, err := sweep.Map(pts, streamPoint.run)
	if err != nil {
		return nil, err
	}
	healthy := res[0].GBps()
	for i, f := range faults {
		cfg, gbps := pts[i].cfg, res[i].GBps()
		memMB := float64((cfg.MemBanks-f.banks)*cfg.MemBankBytes) / (1 << 20)
		t.AddRow(fmt.Sprintf("%d", f.banks), fmt.Sprintf("%d", f.quads),
			fmt.Sprintf("%d", pts[i].p.Threads), fmt.Sprintf("%.1f", memMB),
			f1(gbps), f1(100*gbps/healthy))
	}
	t.Note("failed banks shrink and re-map the address space; a broken FPU disables its quad")
	return t, nil
}

// Mesh weak-scales a halo-exchanged computation over 3-D torus systems
// (Section 2.2: chips as cells). Per-cell compute comes from a real
// single-chip Ocean timing run; the link model times the halo traffic.
func Mesh(s Scale) (*Table, error) {
	block := 64
	sides := []int{1, 2, 4}
	if s == Full {
		block = 128
		sides = []int{1, 2, 4, 8, 16}
	}
	threads := 126
	if threads > block {
		threads = block
	}
	spec, err := workloads.SplashSpec(workloads.SplashArgs{
		Kernel: "ocean", Threads: threads, N: block, Iters: 1,
	})
	if err != nil {
		return nil, err
	}
	r, err := runSplashJob(spec)
	if err != nil {
		return nil, err
	}
	compute := r.Cycles
	halo := 4 * block * 8

	t := &Table{
		ID:      "mesh",
		Title:   "Multi-chip weak scaling over the 3-D torus (Section 2.2 extension)",
		Columns: []string{"cells", "system", "step cycles", "comm %", "aggregate Gflop/s"},
	}
	worsts, err := sweep.Map(sides, func(side int) (uint64, error) {
		m, err := link.NewMesh(link.DefaultLinkConfig(), link.Coord{X: side, Y: side, Z: side}, true)
		if err != nil {
			return 0, err
		}
		var worst uint64
		for x := 0; x < side; x++ {
			for y := 0; y < side; y++ {
				for z := 0; z < side; z++ {
					src := link.Coord{X: x, Y: y, Z: z}
					for _, dst := range []link.Coord{
						{X: (x + 1) % side, Y: y, Z: z},
						{X: x, Y: (y + 1) % side, Z: z},
					} {
						if dst == src {
							continue
						}
						done, err := m.Send(0, src, dst, halo)
						if err != nil {
							return 0, err
						}
						if done > worst {
							worst = done
						}
					}
				}
			}
		}
		return worst, nil
	})
	if err != nil {
		return nil, err
	}
	for i, side := range sides {
		worst := worsts[i]
		step := compute + worst
		cells := side * side * side
		flops := float64(cells) * float64(block*block) * 6
		t.AddRow(fmt.Sprintf("%d", cells),
			fmt.Sprintf("%dx%dx%d", side, side, side),
			fmt.Sprintf("%d", step),
			f1(100*float64(worst)/float64(step)),
			f1(flops/(float64(step)/arch.ClockHz)/1e9))
	}
	t.Note("per-cell compute: %d cycles for a %d^2 relaxation on %d threads; halo %d bytes/step", compute, block, threads, halo)
	return t, nil
}
