package harness

import (
	"fmt"

	"cyclops/internal/arch"
	"cyclops/internal/harness/sweep"
	"cyclops/internal/job/workloads"
	"cyclops/internal/kernel"
	"cyclops/internal/stream"
)

// The ablate-* experiments move one knob of the paper's design point at a
// time — the resource-sharing and memory-system choices Section 2 says
// were fixed "from instruction mixes and silicon area" — and measure what
// the choice buys. Every point is a job spec with an arch.Config override
// (as in Matrix), so the points cache, coalesce and fan out like the
// figure sweeps. Chips start from Runner.Defaults.Config, so -lat applies.

// ablateCopy is the in-cache probe: an unrolled local-cache Copy over
// 504 elements per thread, which four threads just fit in a 16 KB quad
// cache.
func ablateCopy(threads, reps int) stream.Params {
	return stream.Params{
		Kernel: stream.Copy, Threads: threads, N: 504 * threads,
		Local: true, Unroll: 4, Reps: reps,
	}
}

// ablateTriad is the out-of-cache probe of the memory-system sweeps: an
// unrolled local-cache Triad whose vectors overflow every quad cache in
// use (126 threads at Full, as in Figure 5d's plateau).
func ablateTriad(s Scale) stream.Params {
	threads, perThread := 64, 504
	if s == Full {
		threads, perThread = 126, 2000
	}
	n := perThread * threads
	n -= n % (8 * threads)
	return stream.Params{
		Kernel: stream.Triad, Threads: threads, N: n,
		Local: true, Unroll: 4, Reps: 2,
	}
}

// configSweep runs p once per value on the default chip modified by set
// and fills t with one row per value: the value, the modified chip's peak
// memory bandwidth when peak is set, and the measured GB/s.
func configSweep(t *Table, vals []int, peak bool, p stream.Params, set func(*arch.Config, int)) (*Table, error) {
	pts := make([]streamPoint, len(vals))
	for i, v := range vals {
		cfg := Runner.Defaults.Config
		set(&cfg, v)
		pts[i] = streamPoint{p, kernel.Sequential, &cfg}
	}
	res, err := sweep.Map(pts, streamPoint.run)
	if err != nil {
		return nil, err
	}
	for i, v := range vals {
		row := []string{fmt.Sprintf("%d", v)}
		if peak {
			row = append(row, f1(pts[i].cfg.PeakMemBandwidth()/1e9))
		}
		t.AddRow(append(row, f1(res[i].GBps()))...)
	}
	return t, nil
}

// ablateFPU varies how many threads share one FPU and data cache (the
// paper's quad is 4) with the chip fixed at 128 thread units.
func ablateFPU(s Scale) (*Table, error) {
	bodies := 256
	if s == Full {
		bodies = 2048
	}
	t := &Table{
		ID:      "ablate-fpu",
		Title:   "FPU/cache sharing degree (128 threads, FP-heavy FMM, 32 used)",
		Columns: []string{"threads/FPU", "FPUs", "FMM cycles", "slowdown vs 1:1"},
	}
	shares := []int{1, 2, 4, 8}
	cfgs := make([]arch.Config, len(shares))
	for i, share := range shares {
		cfgs[i] = Runner.Defaults.Config
		cfgs[i].ThreadsPerQuad = share
	}
	cycles, err := sweep.Map(cfgs, func(cfg arch.Config) (uint64, error) {
		spec, err := workloads.SplashSpec(workloads.SplashArgs{
			Kernel: "fmm", Threads: 32, Bodies: bodies, Levels: 3,
		})
		if err != nil {
			return 0, err
		}
		spec.Config = &cfg
		r, err := runSplashJob(spec)
		if err != nil {
			return 0, err
		}
		return r.Cycles, nil
	})
	if err != nil {
		return nil, err
	}
	for i, share := range shares {
		t.AddRow(fmt.Sprintf("%d", share), fmt.Sprintf("%d", cfgs[i].Quads()),
			fmt.Sprintf("%d", cycles[i]), fmt.Sprintf("%.2fx", float64(cycles[i])/float64(cycles[0])))
	}
	t.Note("the paper picked 4 threads/FPU from instruction mixes: FP-bound code pays, mixed code mostly does not")
	return t, nil
}

// ablateBanks varies the memory bank count at constant 8 MB capacity.
func ablateBanks(s Scale) (*Table, error) {
	p := ablateTriad(s)
	t := &Table{
		ID:      "ablate-banks",
		Title:   fmt.Sprintf("Memory bank count at 8 MB total (%d-thread out-of-cache triad)", p.Threads),
		Columns: []string{"banks", "peak GB/s", "measured GB/s"},
		Notes:   []string{"bandwidth scales with banks until threads cannot generate enough parallel misses"},
	}
	return configSweep(t, []int{4, 8, 16, 32}, true, p, func(c *arch.Config, banks int) {
		c.MemBanks = banks
		c.MemBankBytes = 8 << 20 / banks
	})
}

// ablateBurst varies the DRAM burst occupancy.
func ablateBurst(s Scale) (*Table, error) {
	p := ablateTriad(s)
	t := &Table{
		ID:      "ablate-burst",
		Title:   fmt.Sprintf("DRAM burst cycles per 64-byte line (%d-thread triad)", p.Threads),
		Columns: []string{"burst cycles", "peak GB/s", "measured GB/s"},
	}
	return configSweep(t, []int{6, 12, 24, 48}, true, p, func(c *arch.Config, burst int) {
		c.MemBurstCycles = burst
	})
}

// ablateWriteBuf varies the per-bank write-combining depth.
func ablateWriteBuf(s Scale) (*Table, error) {
	p := ablateTriad(s)
	t := &Table{
		ID:      "ablate-writebuf",
		Title:   fmt.Sprintf("Per-bank write buffer depth (%d-thread triad)", p.Threads),
		Columns: []string{"backlog cycles", "measured GB/s"},
		Notes:   []string{"shallow buffers stall stores early; deep buffers let store bursts crowd out demand fills"},
	}
	return configSweep(t, []int{24, 48, 96, 192, 768}, false, p, func(c *arch.Config, lag int) {
		c.StoreLagCycles = lag
	})
}

// ablatePolicy compares the thread allocation policies below full
// occupancy.
func ablatePolicy(s Scale) (*Table, error) {
	threadCounts := []int{4, 16, 64, 126}
	if s == Full {
		threadCounts = []int{4, 8, 16, 32, 64, 126}
	}
	t := &Table{
		ID:      "ablate-policy",
		Title:   "Thread allocation policy, local-cache STREAM copy (total GB/s)",
		Columns: []string{"threads", "sequential", "balanced"},
	}
	var pts []streamPoint
	for _, tc := range threadCounts {
		p := ablateCopy(tc, 2)
		pts = append(pts,
			streamPoint{p: p, policy: kernel.Sequential},
			streamPoint{p: p, policy: kernel.Balanced})
	}
	res, err := sweep.Map(pts, streamPoint.run)
	if err != nil {
		return nil, err
	}
	for i, tc := range threadCounts {
		t.AddRow(fmt.Sprintf("%d", tc), f1(res[2*i].GBps()), f1(res[2*i+1].GBps()))
	}
	t.Note("paper: balanced wins when not all threads are used (up to 20%% for Copy); no difference at 126")
	return t, nil
}

// ablateDCache varies the per-quad data cache size.
func ablateDCache(s Scale) (*Table, error) {
	threads, reps := 32, 2
	if s == Full {
		threads, reps = 126, 3
	}
	t := &Table{
		ID:      "ablate-dcache",
		Title:   fmt.Sprintf("Data cache size per quad (%d-thread copy, 504 elem/thread)", threads),
		Columns: []string{"KB/quad", "measured GB/s"},
		Notes:   []string{"504 elements/thread fit a 16 KB quad cache warm but overflow 4-8 KB ones"},
	}
	return configSweep(t, []int{4, 8, 16, 32}, false, ablateCopy(threads, reps), func(c *arch.Config, kb int) {
		c.DCacheBytes = kb << 10
	})
}
