package harness

import (
	"fmt"

	"cyclops/internal/harness/sweep"
	"cyclops/internal/job"
	"cyclops/internal/job/workloads"
	"cyclops/internal/kernel"
	"cyclops/internal/obs"
	"cyclops/internal/prof"
	"cyclops/internal/stream"
)

// Profile regenerates the guest-profiler hot-spot table on both engines:
// STREAM Copy through the instruction-level simulator (symbols from the
// assembler's line table) and the FFT kernel with hardware and software
// barriers through the direct-execution runtime (symbols from the
// T.Region phase annotations). Each workload contributes its top-K
// symbols with the per-stall-reason cycle split, so the table shows not
// just where the guest program spends time but why it waits there.
func Profile(s Scale) (*Table, error) {
	const topK = 5
	streamThreads, streamN := 4, 4000
	fftN, fftThreads := 4096, 16
	every := uint64(64)
	if s == Full {
		streamThreads, streamN = 16, 16000
		fftN, fftThreads = 65536, 64
		every = 256
	}

	cols := []string{"workload", "engine", "symbol", "cycles", "share %", "run %"}
	for _, r := range obs.ReasonNames() {
		cols = append(cols, r+" %")
	}
	t := &Table{
		ID:      "profile",
		Title:   fmt.Sprintf("Guest profiler hot spots (top %d symbols, sampled every %d cycles)", topK, every),
		Columns: cols,
	}

	type point struct {
		workload, engine string
		spec             *job.Spec
	}
	spec, err := workloads.StreamSpec(stream.Params{
		Kernel: stream.Copy, Threads: streamThreads, N: streamN,
		Local: true, Reps: 2, ProfileEvery: every,
	}, kernel.Sequential)
	if err != nil {
		return nil, err
	}
	pts := []point{{"STREAM Copy", "sim", spec}}
	for _, kind := range []string{"hw", "sw"} {
		spec, err := workloads.SplashSpec(workloads.SplashArgs{
			Kernel: "fft", Threads: fftThreads, Barrier: kind, N: fftN, ProfileEvery: every,
		})
		if err != nil {
			return nil, err
		}
		pts = append(pts, point{"FFT " + kind + " barrier", "perf", spec})
	}

	reports, err := sweep.Map(pts, func(p point) (*prof.Report, error) {
		res, err := Runner.Run(p.spec)
		if err != nil {
			return nil, err
		}
		return workloads.ProfileReport(res)
	})
	if err != nil {
		return nil, err
	}
	for i, p := range pts {
		rep := reports[i]
		var total uint64
		for _, row := range rep.Rows {
			total += row.Cycles
		}
		pct := func(v, of uint64) string {
			if of == 0 {
				return "-"
			}
			return f1(100 * float64(v) / float64(of))
		}
		for _, row := range rep.Top(topK) {
			cells := []string{
				p.workload, p.engine, row.Name,
				fmt.Sprintf("%d", row.Cycles), pct(row.Cycles, total),
				pct(row.Kinds[prof.KindRun], row.Cycles),
			}
			for r := 0; r < int(obs.NumStallReasons); r++ {
				cells = append(cells, pct(row.Kinds[prof.StallKind(obs.StallReason(r))], row.Cycles))
			}
			t.AddRow(cells...)
		}
	}
	t.Note("cycles = samples x %d-cycle interval attributed to the symbol; share %% is of the workload's sampled total", every)
	t.Note("run/stall columns split each symbol's cycles by the ledger charge kind at the sample")
	t.Note("sim symbols come from the assembler line table, perf symbols from T.Region phase annotations")
	return t, nil
}
