package harness

import (
	"fmt"
	"strings"

	"cyclops/internal/harness/sweep"
	"cyclops/internal/job/workloads"
	"cyclops/internal/kernel"
	"cyclops/internal/obs"
	"cyclops/internal/splash"
	"cyclops/internal/stream"
)

// bd is one workload's accounting: run and stall cycles summed over all
// thread units, the stall cycles by reason and the memory-wait
// attribution.
type bd struct {
	run, stall uint64
	stalls     obs.Breakdown
	memWaits   obs.MemWaits
}

// bdColumns returns lead followed by the columns bd.row fills: the run
// share, a share per stall reason, a count per memory-wait location and
// the cycle total.
func bdColumns(lead ...string) []string {
	cols := append(lead, "run %")
	for _, r := range obs.ReasonNames() {
		cols = append(cols, r+" %")
	}
	for _, k := range obs.MemWaitNames() {
		cols = append(cols, "w:"+k)
	}
	return append(cols, "cycles")
}

// row returns lead followed by r's cells, each share taken over the
// run+stall total. It fails when the per-reason stalls do not sum to the
// stall total.
func (r bd) row(lead ...string) ([]string, error) {
	if got := r.stalls.Total(); obs.Enabled && got != r.stall {
		return nil, fmt.Errorf("harness: %s: per-reason stalls sum to %d, legacy total is %d",
			strings.Join(lead, ", "), got, r.stall)
	}
	total := r.run + r.stall
	pct := func(v uint64) string {
		if total == 0 {
			return "-"
		}
		return f1(100 * float64(v) / float64(total))
	}
	row := append(lead, pct(r.run))
	for _, v := range r.stalls {
		row = append(row, pct(v))
	}
	for _, v := range r.memWaits {
		row = append(row, fmt.Sprintf("%d", v))
	}
	return append(row, fmt.Sprintf("%d", total)), nil
}

// Breakdown regenerates the Figure-7-style run/stall decomposition
// directly from the stall-reason counters, on both engines: STREAM Copy
// through the instruction-level simulator and the FFT kernel (hardware
// and software barriers) through the direct-execution runtime. Each cell
// is the share of total accounted cycles (run + stall); the per-reason
// shares and the run share sum to 100%.
func Breakdown(s Scale) (*Table, error) {
	streamThreads := []int{1, 4, 16}
	fftN, fftThreads := 4096, 16
	if s == Full {
		streamThreads = []int{1, 4, 16, 64, 126}
		fftN, fftThreads = 65536, 64
	}

	t := &Table{
		ID:      "breakdown",
		Title:   "Run/stall decomposition by reason (% of accounted cycles)",
		Columns: bdColumns("workload", "engine", "threads"),
	}

	type point struct {
		workload, engine string
		threads          int
		run              func() (bd, error)
	}
	pts := make([]point, 0, len(streamThreads)+2)
	for _, tc := range streamThreads {
		tc := tc
		pts = append(pts, point{"STREAM Copy", "sim", tc, func() (bd, error) {
			p := stream.Params{
				Kernel: stream.Copy, Threads: tc, N: tc * 1000, Local: true, Reps: 2,
			}
			spec, err := workloads.StreamSpec(p, kernel.Sequential)
			if err != nil {
				return bd{}, err
			}
			r, err := runStreamJob(spec, p)
			if err != nil {
				return bd{}, err
			}
			return bd{r.Run, r.Stall, r.Stalls, r.MemWaits}, nil
		}})
	}
	for _, kind := range []splash.BarrierKind{splash.HW, splash.SW} {
		kind := kind
		pts = append(pts, point{"FFT " + kind.String() + " barrier", "perf", fftThreads, func() (bd, error) {
			spec, err := workloads.SplashSpec(workloads.SplashArgs{
				Kernel: "fft", Threads: fftThreads, Barrier: kind.String(), N: fftN,
			})
			if err != nil {
				return bd{}, err
			}
			r, err := runSplashJob(spec)
			if err != nil {
				return bd{}, err
			}
			return bd{r.Run, r.Stall, r.Stalls, r.MemWaits}, nil
		}})
	}

	res, err := sweep.Map(pts, func(p point) (bd, error) { return p.run() })
	if err != nil {
		return nil, err
	}
	for i, p := range pts {
		row, err := res[i].row(p.workload, p.engine, fmt.Sprintf("%d", p.threads))
		if err != nil {
			return nil, err
		}
		t.AddRow(row...)
	}
	t.Note("cycles = run+stall summed over all thread units; per-reason shares + run share = 100%%")
	t.Note("counters: dep = scoreboard, cacheport/bankconflict = memory system, fpu = quad FPU, icache = fetch, barrier = sw-barrier spin, sleep = kernel waits")
	t.Note("w:port/w:bank/w:fill/w:hop = per-access memory-wait cycles by location (timing ledger attribution; loads appear here even when the scoreboard books them as dep)")
	return t, nil
}
