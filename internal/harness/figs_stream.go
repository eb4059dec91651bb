package harness

import (
	"fmt"

	"cyclops/internal/arch"
	"cyclops/internal/harness/sweep"
	"cyclops/internal/job/workloads"
	"cyclops/internal/kernel"
	"cyclops/internal/refdata"
	"cyclops/internal/stream"
)

// streamKernels is the STREAM column order of every figure.
var streamKernels = [4]stream.Kernel{stream.Copy, stream.Scale, stream.Add, stream.Triad}

// streamPoint is one STREAM simulation of a sweep: the parameters, the
// thread allocation policy and, for sweeps that modify the chip, the
// configuration to run on (nil = Runner.Defaults.Config).
type streamPoint struct {
	p      stream.Params
	policy kernel.Policy
	cfg    *arch.Config
}

// run executes the point through the job layer, so a warm result cache
// answers it without simulating.
func (q streamPoint) run() (*stream.Result, error) {
	spec, err := workloads.StreamSpec(q.p, q.policy)
	if err != nil {
		return nil, fmt.Errorf("%v: %w", q.p.Kernel, err)
	}
	spec.Config = q.cfg
	r, err := runStreamJob(spec, q.p)
	if err != nil {
		return nil, fmt.Errorf("%v: %w", q.p.Kernel, err)
	}
	return r, nil
}

// streamGrid fans rows×4 STREAM simulations across the sweep pool — each
// point builds its own chip — and regroups the results one row of four
// kernels per input row, in input order.
func streamGrid(rows []stream.Params, policy kernel.Policy) ([][4]*stream.Result, error) {
	pts := make([]streamPoint, 0, 4*len(rows))
	for _, base := range rows {
		for _, k := range streamKernels {
			p := base
			p.Kernel = k
			pts = append(pts, streamPoint{p: p, policy: policy})
		}
	}
	res, err := sweep.Map(pts, streamPoint.run)
	if err != nil {
		return nil, err
	}
	out := make([][4]*stream.Result, len(rows))
	for i := range rows {
		copy(out[i][:], res[4*i:4*i+4])
	}
	return out, nil
}

// Fig4a: single-threaded STREAM out of the box — per-thread bandwidth vs
// vector size, showing the in-cache to out-of-cache transition.
func Fig4a(s Scale) (*Table, error) {
	sizes := []int{512, 4096, 32768, 131072}
	if s == Full {
		sizes = []int{1000, 2000, 5000, 10000, 20000, 40000, 80000, 120000, 180000, 252000}
	}
	t := &Table{
		ID:      "fig4a",
		Title:   "Single-threaded STREAM out-of-the-box (MB/s)",
		Columns: []string{"elements", "Copy", "Scale", "Add", "Triad"},
	}
	rows := make([]stream.Params, 0, len(sizes))
	for _, n := range sizes {
		n -= n % 8
		rows = append(rows, stream.Params{Threads: 1, N: n, Reps: 2})
	}
	grid, err := streamGrid(rows, kernel.Sequential)
	if err != nil {
		return nil, err
	}
	for i, p := range rows {
		rs := grid[i]
		t.AddRow(fmt.Sprintf("%d", p.N),
			f1(rs[0].PerThreadMBps()), f1(rs[1].PerThreadMBps()),
			f1(rs[2].PerThreadMBps()), f1(rs[3].PerThreadMBps()))
	}
	t.Note("paper: ~420 MB/s in-cache falling to ~250 MB/s out-of-cache; transition earlier for Add/Triad (three vectors)")
	return t, nil
}

// Fig4b: 126 independent single-thread STREAMs — average bandwidth per
// thread vs per-thread vector size, plus the Section 3.2.1 aggregate
// ratio against the single-threaded run.
func Fig4b(s Scale) (*Table, error) {
	threads := 126
	sizes := []int{112, 400, 1000}
	if s == Full {
		sizes = []int{112, 248, 400, 600, 800, 1000, 1200, 1400, 1600, 2000}
	}
	t := &Table{
		ID:      "fig4b",
		Title:   fmt.Sprintf("Multithreaded STREAM out-of-the-box, %d threads (MB/s per thread)", threads),
		Columns: []string{"elements/thread", "Copy", "Scale", "Add", "Triad"},
	}
	rows := make([]stream.Params, 0, len(sizes)+1)
	for _, n := range sizes {
		n -= n % 8
		rows = append(rows, stream.Params{Threads: threads, N: n, Independent: true, Reps: 2})
	}
	// The single-threaded reference for the aggregate ratio rides along as
	// one more grid row at the largest size.
	nLast := sizes[len(sizes)-1] &^ 7
	rows = append(rows, stream.Params{Threads: 1, N: nLast, Reps: 2})
	grid, err := streamGrid(rows, kernel.Sequential)
	if err != nil {
		return nil, err
	}
	for i := 0; i < len(sizes); i++ {
		rs := grid[i]
		t.AddRow(fmt.Sprintf("%d", rows[i].N),
			f1(rs[0].PerThreadMBps()), f1(rs[1].PerThreadMBps()),
			f1(rs[2].PerThreadMBps()), f1(rs[3].PerThreadMBps()))
	}
	lastRow, single := grid[len(sizes)-1], grid[len(sizes)]
	for i, name := range []string{"Copy", "Scale", "Add", "Triad"} {
		ratio := lastRow[i].Bandwidth() / single[i].Bandwidth()
		t.Note("aggregate %s bandwidth is %.0fx the single-threaded run (paper: %.0f-%.0fx)",
			name, ratio, refdata.PaperTargets.AggregateRatioLow, refdata.PaperTargets.AggregateRatioHigh)
	}
	return t, nil
}

// fig5Variant builds the Figure 5 experiments: (a) blocked, (b) cyclic,
// (c) blocked + local caches, (d) unrolled + blocked + local caches.
func fig5Variant(v byte) func(Scale) (*Table, error) {
	return func(s Scale) (*Table, error) { return Fig5(v, s) }
}

// Fig5 runs one panel of Figure 5: total bandwidth vs per-thread vector
// size for 126 threads.
func Fig5(variant byte, s Scale) (*Table, error) {
	threads := 126
	sizes := []int{104, 400, 1000}
	if s == Full {
		sizes = []int{104, 200, 400, 600, 800, 1000, 1200, 1400, 1600, 1800, 2016}
	}
	base := stream.Params{Threads: threads, Reps: 2}
	var title string
	switch variant {
	case 'a':
		title = "Blocked partitioning"
	case 'b':
		title = "Cyclic partitioning"
		base.Partition = stream.Cyclic
	case 'c':
		title = "Blocked partitioning with local caches"
		base.Local = true
	case 'd':
		title = "Unrolled loops, blocked partitioning, local caches"
		base.Local = true
		base.Unroll = 4
	default:
		return nil, fmt.Errorf("harness: no figure 5%c", variant)
	}
	t := &Table{
		ID:      fmt.Sprintf("fig5%c", variant),
		Title:   title + fmt.Sprintf(" (%d threads, total GB/s)", threads),
		Columns: []string{"elements/thread", "Copy", "Scale", "Add", "Triad"},
	}
	rows := make([]stream.Params, 0, len(sizes))
	for _, per := range sizes {
		p := base
		p.N = per * threads
		rows = append(rows, p)
	}
	grid, err := streamGrid(rows, kernel.Sequential)
	if err != nil {
		return nil, err
	}
	for i, per := range sizes {
		rs := grid[i]
		t.AddRow(fmt.Sprintf("%d", per),
			f1(rs[0].GBps()), f1(rs[1].GBps()), f1(rs[2].GBps()), f1(rs[3].GBps()))
	}
	switch variant {
	case 'a', 'b':
		t.Note("paper: blocked beats cyclic; out-of-cache plateau near the 42 GB/s memory peak")
	case 'c':
		t.Note("paper: up to 60%% small-vector gain over distributed caches, ~30%% for Scale at large sizes")
	case 'd':
		t.Note("paper: unrolling lifts small vectors (above 80 GB/s in cache); no effect once memory-bound")
	}
	return t, nil
}

// Fig6a: best configuration (unrolled, local caches, blocked, balanced
// allocation) at a fixed large vector, sweeping the thread count.
func Fig6a(s Scale) (*Table, error) {
	const fullN = 249984
	threadCounts := []int{1, 4, 16, 64, 126}
	n := 49984 - 49984%8
	if s == Full {
		threadCounts = []int{1, 2, 4, 8, 16, 32, 48, 64, 96, 112, 126}
		n = fullN
	}
	t := &Table{
		ID:      "fig6a",
		Title:   fmt.Sprintf("Cyclops best-config STREAM, %d elements (total GB/s)", n),
		Columns: []string{"threads", "Copy", "Scale", "Add", "Triad"},
	}
	rows := make([]stream.Params, 0, len(threadCounts))
	for _, tc := range threadCounts {
		nt := n - n%(8*tc)
		rows = append(rows, stream.Params{Threads: tc, N: nt, Local: true, Unroll: 4, Reps: 2})
	}
	grid, err := streamGrid(rows, kernel.Balanced)
	if err != nil {
		return nil, err
	}
	for i, tc := range threadCounts {
		rs := grid[i]
		t.AddRow(fmt.Sprintf("%d", tc),
			f1(rs[0].GBps()), f1(rs[1].GBps()), f1(rs[2].GBps()), f1(rs[3].GBps()))
	}
	t.Note("paper: saturates near 40 GB/s by ~48-64 threads — a single chip matching the 128-cpu Origin 3800")
	return t, nil
}

// Fig6b prints the published SGI Origin 3800/400 reference series.
func Fig6b() (*Table, error) {
	t := &Table{
		ID:      "fig6b",
		Title:   "SGI Origin 3800-400 published STREAM (total GB/s, 5M elements/processor)",
		Columns: []string{"processors", "Copy", "Scale", "Add", "Triad"},
	}
	for _, p := range refdata.Origin3800 {
		t.AddRow(fmt.Sprintf("%d", p.Processors), f1(p.Copy), f1(p.Scale), f1(p.Add), f1(p.Triad))
	}
	t.Note("digitized from Figure 6(b) of the paper; published results, not simulated here")
	return t, nil
}
