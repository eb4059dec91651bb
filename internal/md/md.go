// Package md implements the molecular dynamics workload the paper's
// Section 5 names as a target application for Cyclops (the Blue Gene
// protein-science mission; reference [4] of the paper demonstrates MD
// scalability on this architecture).
//
// The simulation is classical NVE molecular dynamics: Lennard-Jones
// particles in a periodic box, a cell list for O(n) neighbour finding,
// and velocity-Verlet integration. Threads own contiguous cell ranges;
// every phase ends in a barrier. Like the SPLASH-2 kernels it runs on the
// direct-execution timing runtime, so force loops charge loads and fused
// multiply-adds against the simulated chip.
package md

import (
	"fmt"
	"math"

	"cyclops/internal/isa"
	"cyclops/internal/perf"
	"cyclops/internal/splash"
)

// Opts configures a run.
type Opts struct {
	splash.Config
	// NParticles is the particle count; Steps the time steps (default 5).
	NParticles int
	Steps      int
	// Density sets the box size: L = (N/Density)^(1/3) (default 0.8).
	Density float64
	// Dt is the integration step (default 0.002).
	Dt float64
	// State, when non-nil, supplies and receives particle state.
	State *State
}

// State is the particle system.
type State struct {
	Pos, Vel, Force [][3]float64
	Box             float64
}

// Cutoff is the LJ interaction range in reduced units.
const Cutoff = 2.5

// Run executes the simulation and returns timing plus the final state.
func Run(opts Opts) (*splash.Result, *State, error) {
	n := opts.NParticles
	if n < 2 {
		return nil, nil, fmt.Errorf("md: need at least 2 particles, got %d", n)
	}
	steps := opts.Steps
	if steps == 0 {
		steps = 5
	}
	density := opts.Density
	if density == 0 {
		density = 0.8
	}
	dt := opts.Dt
	if dt == 0 {
		dt = 0.002
	}
	mach, err := opts.Config.Machine()
	if err != nil {
		return nil, nil, err
	}
	eaPos, err := splash.AllocShared(mach, 32, n) // padded particle records
	if err != nil {
		return nil, nil, err
	}
	st := opts.State
	if st == nil {
		st = Lattice(n, density, 23)
	}
	if len(st.Pos) != n {
		return nil, nil, fmt.Errorf("md: state has %d particles, want %d", len(st.Pos), n)
	}
	cellsPerSide := int(st.Box / Cutoff)
	if cellsPerSide < 1 {
		cellsPerSide = 1
	}
	if opts.Threads > cellsPerSide*cellsPerSide*cellsPerSide {
		return nil, nil, fmt.Errorf("md: %d threads exceed %d cells", opts.Threads, cellsPerSide*cellsPerSide*cellsPerSide)
	}
	eaCells, err := splash.AllocShared(mach, 16, cellsPerSide, cellsPerSide, cellsPerSide)
	if err != nil {
		return nil, nil, err
	}
	bar, err := splash.NewBarrier(mach, opts.Threads, opts.Barrier)
	if err != nil {
		return nil, nil, err
	}

	sim := &mdSim{st: st, n: n, cells: cellsPerSide, dt: dt}
	T := opts.Threads

	err = mach.SpawnN(T, func(t *perf.T, p int) {
		for s := 0; s < steps; s++ {
			// Phase 1: thread 0 rebuilds the cell list (cheap binning).
			if p == 0 {
				sim.binParticles()
				t.LoadBlock(eaPos, n, 8, 32)
				t.Work(4 * n)
				t.StoreBlock(eaCells, len(sim.heads), 4, 16)
			}
			bar.Wait(t, p)

			// Phase 2: forces over my cell range.
			nc := len(sim.heads)
			lo, hi := splash.Span(nc, p, T)
			for c := lo; c < hi; c++ {
				pairs := sim.cellForces(c)
				if pairs == 0 {
					continue
				}
				// Per pair: load the partner, ~12 multiply-add class
				// ops (dr, r^2, NR reciprocal powers, accumulate).
				t.LoadBlock(eaPos, minI(pairs, 64), 8, 32)
				t.FPBlock(isa.PipeBoth, 12*pairs)
				t.Work(3 * pairs)
			}
			bar.Wait(t, p)

			// Phase 3: velocity-Verlet integration of my particles.
			plo, phi := splash.Span(n, p, T)
			v := t.LoadBlock(eaPos+uint32(32*plo), phi-plo, 8, 32)
			sim.integrate(plo, phi)
			f := t.FPBlock(isa.PipeBoth, 9*(phi-plo), v)
			t.StoreBlock(eaPos+uint32(32*plo), phi-plo, 8, 32, f)
			bar.Wait(t, p)
		}
	})
	if err != nil {
		return nil, nil, err
	}
	if err := mach.Run(); err != nil {
		return nil, nil, err
	}
	res := splash.NewResult("MD", fmt.Sprintf("%d particles, %d steps", n, steps), opts.Threads, mach)
	return res, st, nil
}

// Lattice places n particles on a cubic lattice with small deterministic
// velocity noise (net momentum removed).
func Lattice(n int, density float64, seed uint32) *State {
	box := math.Cbrt(float64(n) / density)
	side := int(math.Ceil(math.Cbrt(float64(n))))
	st := &State{
		Pos:   make([][3]float64, n),
		Vel:   make([][3]float64, n),
		Force: make([][3]float64, n),
		Box:   box,
	}
	s := seed
	next := func() float64 {
		s = s*1664525 + 1013904223
		return float64(s>>8)/float64(1<<24) - 0.5
	}
	spacing := box / float64(side)
	var mom [3]float64
	for i := 0; i < n; i++ {
		st.Pos[i] = [3]float64{
			(float64(i%side) + 0.5) * spacing,
			(float64(i/side%side) + 0.5) * spacing,
			(float64(i/(side*side)) + 0.5) * spacing,
		}
		for d := 0; d < 3; d++ {
			st.Vel[i][d] = next() * 0.5
			mom[d] += st.Vel[i][d]
		}
	}
	for i := 0; i < n; i++ {
		for d := 0; d < 3; d++ {
			st.Vel[i][d] -= mom[d] / float64(n)
		}
	}
	return st
}

// Energy returns kinetic, potential and total energy (for tests: NVE
// conserves the total).
func Energy(st *State) (kin, pot, total float64) {
	n := len(st.Pos)
	for i := 0; i < n; i++ {
		for d := 0; d < 3; d++ {
			kin += 0.5 * st.Vel[i][d] * st.Vel[i][d]
		}
	}
	cut2 := Cutoff * Cutoff
	shift := ljPotential(cut2)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			r2 := dist2(st, i, j)
			if r2 < cut2 {
				pot += ljPotential(r2) - shift
			}
		}
	}
	return kin, pot, kin + pot
}

// Momentum returns the net momentum vector (conserved exactly).
func Momentum(st *State) [3]float64 {
	var m [3]float64
	for i := range st.Vel {
		for d := 0; d < 3; d++ {
			m[d] += st.Vel[i][d]
		}
	}
	return m
}

// --- internals ---------------------------------------------------------------

type mdSim struct {
	st    *State
	n     int
	cells int
	dt    float64
	heads []int
	next  []int
}

func (s *mdSim) cellIndex(pos [3]float64) int {
	c := s.cells
	ix := int(pos[0] / s.st.Box * float64(c))
	iy := int(pos[1] / s.st.Box * float64(c))
	iz := int(pos[2] / s.st.Box * float64(c))
	clamp := func(v int) int {
		if v < 0 {
			return 0
		}
		if v >= c {
			return c - 1
		}
		return v
	}
	return (clamp(iz)*c+clamp(iy))*c + clamp(ix)
}

func (s *mdSim) binParticles() {
	nc := s.cells * s.cells * s.cells
	if s.heads == nil {
		s.heads = make([]int, nc)
		s.next = make([]int, s.n)
	}
	for i := range s.heads {
		s.heads[i] = -1
	}
	for i := 0; i < s.n; i++ {
		c := s.cellIndex(s.st.Pos[i])
		s.next[i] = s.heads[c]
		s.heads[c] = i
	}
	// Forces accumulate fresh each step.
	for i := range s.st.Force {
		s.st.Force[i] = [3]float64{}
	}
}

// cellForces computes forces on the particles of cell c against all
// neighbouring cells, returning the pair count evaluated. Each ordered
// (cell, neighbour) pair is computed once per owning cell, accumulating
// only onto cell c's particles so parallel cell ranges never race.
func (s *mdSim) cellForces(c int) int {
	cc := s.cells
	cz := c / (cc * cc)
	cy := c / cc % cc
	cx := c % cc
	cut2 := Cutoff * Cutoff
	pairs := 0
	// With fewer than three cells per side the periodic wrap aliases
	// offsets onto the same cell; deduplicate so pairs count once.
	var nbs []int
	for dz := -1; dz <= 1; dz++ {
		for dy := -1; dy <= 1; dy++ {
			for dx := -1; dx <= 1; dx++ {
				nb := (wrap(cz+dz, cc)*cc+wrap(cy+dy, cc))*cc + wrap(cx+dx, cc)
				dup := false
				for _, seen := range nbs {
					if seen == nb {
						dup = true
						break
					}
				}
				if !dup {
					nbs = append(nbs, nb)
				}
			}
		}
	}
	for _, nb := range nbs {
		for i := s.heads[c]; i >= 0; i = s.next[i] {
			for j := s.heads[nb]; j >= 0; j = s.next[j] {
				if i == j {
					continue
				}
				r2, dr := minImage(s.st, i, j)
				if r2 >= cut2 || r2 == 0 {
					continue
				}
				pairs++
				f := ljForceOverR(r2)
				for d := 0; d < 3; d++ {
					s.st.Force[i][d] += f * dr[d]
				}
			}
		}
	}
	return pairs
}

func (s *mdSim) integrate(lo, hi int) {
	dt := s.dt
	for i := lo; i < hi; i++ {
		for d := 0; d < 3; d++ {
			s.st.Vel[i][d] += s.st.Force[i][d] * dt
			p := s.st.Pos[i][d] + s.st.Vel[i][d]*dt
			// Periodic wrap.
			for p < 0 {
				p += s.st.Box
			}
			for p >= s.st.Box {
				p -= s.st.Box
			}
			s.st.Pos[i][d] = p
		}
	}
}

func wrap(v, n int) int { return (v%n + n) % n }

func minI(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// minImage returns the squared minimum-image distance and displacement
// from particle i to j.
func minImage(st *State, i, j int) (float64, [3]float64) {
	var dr [3]float64
	var r2 float64
	for d := 0; d < 3; d++ {
		x := st.Pos[j][d] - st.Pos[i][d]
		if x > st.Box/2 {
			x -= st.Box
		} else if x < -st.Box/2 {
			x += st.Box
		}
		dr[d] = x
		r2 += x * x
	}
	return r2, dr
}

func dist2(st *State, i, j int) float64 {
	r2, _ := minImage(st, i, j)
	return r2
}

// ljPotential is 4(r^-12 - r^-6).
func ljPotential(r2 float64) float64 {
	inv6 := 1 / (r2 * r2 * r2)
	return 4 * (inv6*inv6 - inv6)
}

// ljForceOverR is F/r such that force = (F/r) * dr, pointing from i away
// from j for repulsion. With dr = pos[j]-pos[i], the conventional LJ
// force on i is -dU/dr * (dr/r) = -(24/r^2)(2 r^-12 - r^-6) * dr.
func ljForceOverR(r2 float64) float64 {
	inv2 := 1 / r2
	inv6 := inv2 * inv2 * inv2
	return -24 * inv2 * inv6 * (2*inv6 - 1)
}
