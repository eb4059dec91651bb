package splash

import (
	"fmt"
	"slices"

	"cyclops/internal/isa"
	"cyclops/internal/perf"
)

// Ocean stands in for the SPLASH-2 Ocean application: the computational
// heart of Ocean's time step is an iterative nearest-neighbour grid
// solver, reproduced here as red-black successive over-relaxation on an
// (n+2) x (n+2) grid with fixed boundaries. Threads own contiguous row
// bands; every half-sweep (one colour) ends in a barrier, giving the same
// communication-to-computation scaling as the original multigrid solver's
// relaxation sweeps. (The full multigrid hierarchy is a documented
// simplification — see DESIGN.md.)

// OceanOpts configures a run.
type OceanOpts struct {
	Config
	// N is the interior grid dimension.
	N int
	// Iters is the number of red-black iterations (default 10).
	Iters int
	// Omega is the SOR factor (default 1.5).
	Omega float64
	// Grid, when non-nil, supplies the (n+2)*(n+2) initial grid and
	// receives the relaxed result when the run succeeds.
	Grid []float64
}

// RunOcean executes the kernel.
func RunOcean(opts OceanOpts) (*Result, error) {
	n := opts.N
	if n < 2 {
		return nil, fmt.Errorf("splash: ocean grid %d too small", n)
	}
	iters := opts.Iters
	if iters == 0 {
		iters = 10
	}
	omega := opts.Omega
	if omega == 0 {
		omega = 1.5
	}
	mach, err := opts.Machine()
	if err != nil {
		return nil, err
	}
	if opts.Threads > n {
		return nil, fmt.Errorf("splash: %d threads exceed %d grid rows", opts.Threads, n)
	}
	stride := n + 2
	ea, err := AllocShared(mach, 8, stride, stride)
	if err != nil {
		return nil, err
	}
	if opts.Grid != nil && len(opts.Grid) != stride*stride {
		return nil, fmt.Errorf("splash: grid length %d != %d", len(opts.Grid), stride*stride)
	}
	// The relaxation works on its own copy of a supplied grid and writes
	// it back only when the run succeeds.
	g := slices.Clone(opts.Grid)
	if g == nil {
		g = OceanGrid(n)
	}
	addr := func(i, j int) uint32 { return ea + uint32(8*(i*stride+j)) }
	bar, err := NewBarrier(mach, opts.Threads, opts.Barrier)
	if err != nil {
		return nil, err
	}

	err = mach.SpawnN(opts.Threads, func(t *perf.T, p int) {
		lo, hi := Span(n, p, opts.Threads)
		lo++ // grid rows are 1-based (row 0 is boundary)
		hi++
		for it := 0; it < iters; it++ {
			for colour := 0; colour < 2; colour++ {
				for i := lo; i < hi; i++ {
					// Points of this colour in row i.
					jStart := 1 + (i+colour)%2
					count := (n - jStart + 2) / 2
					if count <= 0 {
						continue
					}
					// Stencil traffic: the row above, below and the
					// centre row stream through the cache; writes
					// touch the colour's points.
					v1 := t.LoadBlock(addr(i-1, jStart), count, 8, 16)
					v2 := t.LoadBlock(addr(i+1, jStart), count, 8, 16)
					v3 := t.LoadBlock(addr(i, jStart-1), count+1, 8, 16)
					for j := jStart; j <= n; j += 2 {
						u := g[i*stride+j]
						nb := g[(i-1)*stride+j] + g[(i+1)*stride+j] +
							g[i*stride+j-1] + g[i*stride+j+1]
						g[i*stride+j] = u + omega*(nb/4-u)
					}
					// 4 adds + multiply-add per point.
					f := t.FPBlock(isa.PipeAdd, 4*count, v1, v2, v3)
					f = t.FPBlock(isa.PipeBoth, count, f)
					t.StoreBlock(addr(i, jStart), count, 8, 16, f)
					t.Work(2 * count)
				}
				bar.Wait(t, p)
			}
		}
	})
	if err != nil {
		return nil, err
	}
	if err := mach.Run(); err != nil {
		return nil, err
	}
	if opts.Grid != nil {
		copy(opts.Grid, g)
	}
	return NewResult("Ocean", fmt.Sprintf("%dx%d grid, %d iters", n, n, iters), opts.Threads, mach), nil
}

// OceanGrid builds the default test problem: zero interior, hot top edge.
func OceanGrid(n int) []float64 {
	stride := n + 2
	g := make([]float64, stride*stride)
	for j := 0; j < stride; j++ {
		g[j] = 100
	}
	return g
}

// OceanResidual returns the maximum absolute Laplace residual over the
// interior (for tests: relaxation must reduce it).
func OceanResidual(g []float64, n int) float64 {
	stride := n + 2
	var worst float64
	for i := 1; i <= n; i++ {
		for j := 1; j <= n; j++ {
			r := g[(i-1)*stride+j] + g[(i+1)*stride+j] +
				g[i*stride+j-1] + g[i*stride+j+1] - 4*g[i*stride+j]
			if d := abs(r); d > worst {
				worst = d
			}
		}
	}
	return worst
}
