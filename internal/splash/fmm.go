package splash

import (
	"fmt"
	"math"
	"math/cmplx"

	"cyclops/internal/isa"
	"cyclops/internal/perf"
)

// FMM is the SPLASH-2 fast multipole method, here the classical 2-D
// Greengard-Rokhlin algorithm on a uniform quadtree (SPLASH-2 uses an
// adaptive tree; the uniform variant is a documented simplification that
// preserves the phase structure and communication pattern): charges
// induce the log-potential, boxes carry multipole and local expansions of
// order P, and the phases — P2M, M2M upward, M2L over interaction lists,
// L2L downward, and near-field P2P — run in parallel over box partitions
// with barriers between them.

// FMMMinLevels and FMMMaxLevels bound the quadtree depth RunFMM accepts:
// FMMOpts.Levels when it is set, else the depth it picks from NBodies.
const (
	FMMMinLevels = 2
	FMMMaxLevels = 8
)

// FMMLevels is the quadtree depth RunFMM runs nBodies charges at: levels
// when it is set, else the shallowest depth from 2 whose 4^levels leaves
// hold at most 16 charges each on average. It refuses fewer than 2
// charges and a depth outside [FMMMinLevels, FMMMaxLevels], so more than
// 1,048,576 charges need levels set.
func FMMLevels(nBodies, levels int) (int, error) {
	if nBodies < 2 {
		return 0, fmt.Errorf("splash: fmm needs at least 2 charges, got %d", nBodies)
	}
	if levels == 0 {
		levels = 2
		for levels <= FMMMaxLevels && (1<<(2*uint(levels+1)))*4 < nBodies {
			levels++
		}
	}
	if levels < FMMMinLevels || levels > FMMMaxLevels {
		return 0, fmt.Errorf("splash: fmm levels %d out of range [%d,%d]", levels, FMMMinLevels, FMMMaxLevels)
	}
	return levels, nil
}

// FMMOpts configures a run.
type FMMOpts struct {
	Config
	// NBodies is the charge count; Levels the quadtree depth (leaf grid
	// is 2^Levels per side, default chosen from NBodies); P the
	// expansion order (default 8).
	NBodies int
	Levels  int
	P       int
	// Charges, when non-nil, supplies the particles; potentials are
	// written into Phi.
	Charges []Charge
	// Phi receives the potential at each charge when non-nil.
	Phi []float64
}

// Charge is a 2-D point charge.
type Charge struct {
	Z complex128
	Q float64
}

// fmmBox is one quadtree box.
type fmmBox struct {
	center complex128
	m, l   []complex128 // multipole and local coefficients, 0..P
	bodies []int        // leaf boxes only
}

// RunFMM executes the kernel.
func RunFMM(opts FMMOpts) (*Result, error) {
	n := opts.NBodies
	levels, err := FMMLevels(n, opts.Levels)
	if err != nil {
		return nil, err
	}
	p := opts.P
	if p == 0 {
		p = 8
	}
	mach, err := opts.Machine()
	if err != nil {
		return nil, err
	}
	// Simulated layout: one padded region per box per level.
	coefBytes := 16 * (p + 1)
	eaLevel := make([]uint32, levels+1)
	for l := 0; l <= levels; l++ {
		if eaLevel[l], err = AllocShared(mach, 2*coefBytes+64, boxCount(l)); err != nil {
			return nil, err
		}
	}
	eaCh, err := AllocShared(mach, 32, n)
	if err != nil {
		return nil, err
	}
	charges := opts.Charges
	if charges == nil {
		charges = RandomCharges(n, 17)
	}
	if len(charges) != n {
		return nil, fmt.Errorf("splash: charges length %d != %d", len(charges), n)
	}

	// Build the uniform tree: level 0 is the root; leaves at `levels`.
	tree := newFMMTree(charges, levels, p)
	phi := make([]float64, n)

	boxEA := func(l, idx int) uint32 {
		return eaLevel[l] + uint32(idx*(2*coefBytes+64))
	}
	bar, err := NewBarrier(mach, opts.Threads, opts.Barrier)
	if err != nil {
		return nil, err
	}
	T := opts.Threads

	err = mach.SpawnN(T, func(t *perf.T, th int) {
		// The thread's own list buffers, refilled for every box.
		var ilBuf [36]int
		var nbBuf [9]int
		// Phase 1: P2M at the leaves.
		nl := boxCount(levels)
		lo, hi := Span(nl, th, T)
		for b := lo; b < hi; b++ {
			box := &tree.boxes[levels][b]
			tree.p2m(levels, b)
			if len(box.bodies) > 0 {
				t.LoadBlock(eaCh, len(box.bodies), 8, 32)
				t.FPBlock(isa.PipeBoth, 4*p*len(box.bodies))
				t.StoreBlock(boxEA(levels, b), 2*(p+1), 8, 8)
			}
			t.Work(8)
		}
		bar.Wait(t, th)

		// Phase 2: M2M upward.
		for l := levels - 1; l >= 0; l-- {
			nb := boxCount(l)
			lo, hi := Span(nb, th, T)
			for b := lo; b < hi; b++ {
				tree.m2m(l, b)
				t.LoadBlock(boxEA(l+1, childIdx(l, b, 0)), 8*(p+1), 8, 8)
				t.FPBlock(isa.PipeBoth, 2*p*p)
				t.StoreBlock(boxEA(l, b), 2*(p+1), 8, 8)
				t.Work(8)
			}
			bar.Wait(t, th)
		}

		// Phase 3: M2L over interaction lists, top down, then L2L.
		for l := 2; l <= levels; l++ {
			nb := boxCount(l)
			lo, hi := Span(nb, th, T)
			for b := lo; b < hi; b++ {
				ilist := interactionList(l, b, &ilBuf)
				for _, s := range ilist {
					tree.m2l(l, s, b)
					t.LoadBlock(boxEA(l, s), 2*(p+1), 8, 8)
					t.FPBlock(isa.PipeBoth, p*p)
				}
				// L2L from the parent.
				tree.l2l(l, b)
				t.LoadBlock(boxEA(l-1, b>>2), 2*(p+1), 8, 8)
				t.FPBlock(isa.PipeBoth, p*p)
				t.StoreBlock(boxEA(l, b), 2*(p+1), 8, 8)
				t.Work(8 + 4*len(ilist))
			}
			bar.Wait(t, th)
		}

		// Phase 4: evaluation — local expansion plus near field.
		nlBoxes := boxCount(levels)
		lo, hi = Span(nlBoxes, th, T)
		for b := lo; b < hi; b++ {
			box := &tree.boxes[levels][b]
			if len(box.bodies) == 0 {
				continue
			}
			t.LoadBlock(boxEA(levels, b), 2*(p+1), 8, 8)
			for _, i := range box.bodies {
				phi[i] = tree.evalLocal(levels, b, charges[i].Z)
			}
			t.FPBlock(isa.PipeBoth, 2*p*len(box.bodies))
			// Near field: direct interactions with neighbour boxes.
			pairs := 0
			for _, nb := range neighbours(levels, b, true, &nbBuf) {
				other := &tree.boxes[levels][nb]
				if len(other.bodies) == 0 {
					continue
				}
				t.LoadBlock(eaCh, len(other.bodies), 8, 32)
				for _, i := range box.bodies {
					for _, j := range other.bodies {
						if i == j {
							continue
						}
						phi[i] += charges[j].Q * math.Log(cmplx.Abs(charges[i].Z-charges[j].Z))
						pairs++
					}
				}
			}
			t.FPBlock(isa.PipeBoth, 8*pairs)
			t.StoreBlock(eaCh, len(box.bodies), 8, 32)
			t.Work(4 * len(box.bodies))
		}
		bar.Wait(t, th)
	})
	if err != nil {
		return nil, err
	}
	if err := mach.Run(); err != nil {
		return nil, err
	}
	if opts.Phi != nil {
		copy(opts.Phi, phi)
	}
	return NewResult("FMM", fmt.Sprintf("%d charges, %d levels, p=%d", n, levels, p), T, mach), nil
}

// --- tree geometry ----------------------------------------------------------

func boxCount(level int) int { return 1 << (2 * uint(level)) }

// boxRC splits a Morton-ish row-major index into row, col at a level.
func boxRC(level, idx int) (r, c int) {
	side := 1 << uint(level)
	return idx / side, idx % side
}

func boxIdx(level, r, c int) int { return r*(1<<uint(level)) + c }

// childIdx returns the k-th child (0..3) of box b at level l.
func childIdx(l, b, k int) int {
	r, c := boxRC(l, b)
	return boxIdx(l+1, 2*r+k/2, 2*c+k%2)
}

// parentIdx returns the parent of box b at level l.
func parentIdx(l, b int) int {
	r, c := boxRC(l, b)
	return boxIdx(l-1, r/2, c/2)
}

// neighbours lists boxes adjacent to b at a level, row by row; includeSelf
// adds b. It fills out and returns the filled part.
func neighbours(level, b int, includeSelf bool, out *[9]int) []int {
	side := 1 << uint(level)
	r, c := boxRC(level, b)
	k := 0
	for dr := -1; dr <= 1; dr++ {
		for dc := -1; dc <= 1; dc++ {
			if dr == 0 && dc == 0 && !includeSelf {
				continue
			}
			nr, nc := r+dr, c+dc
			if nr >= 0 && nr < side && nc >= 0 && nc < side {
				out[k] = boxIdx(level, nr, nc)
				k++
			}
		}
	}
	return out[:k]
}

// interactionList returns the well-separated same-level boxes: children
// of the parent's neighbours that are not adjacent to b, in the parent's
// neighbour order. It fills out and returns the filled part.
func interactionList(level, b int, out *[36]int) []int {
	r, c := boxRC(level, b)
	var pn [9]int
	k := 0
	for _, p := range neighbours(level-1, parentIdx(level, b), true, &pn) {
		for q := 0; q < 4; q++ {
			cand := childIdx(level-1, p, q)
			if cr, cc := boxRC(level, cand); cr-r > 1 || r-cr > 1 || cc-c > 1 || c-cc > 1 {
				out[k] = cand
				k++
			}
		}
	}
	return out[:k]
}

// --- expansions ---------------------------------------------------------------

type fmmTree struct {
	p     int
	src   []Charge
	boxes [][]fmmBox
}

func newFMMTree(charges []Charge, levels, p int) *fmmTree {
	tr := &fmmTree{p: p, src: charges, boxes: make([][]fmmBox, levels+1)}
	for l := 0; l <= levels; l++ {
		side := 1 << uint(l)
		tr.boxes[l] = make([]fmmBox, boxCount(l))
		for idx := range tr.boxes[l] {
			r, c := boxRC(l, idx)
			w := 1.0 / float64(side)
			tr.boxes[l][idx] = fmmBox{
				center: complex((float64(c)+0.5)*w, (float64(r)+0.5)*w),
				m:      make([]complex128, p+1),
				l:      make([]complex128, p+1),
			}
		}
	}
	side := 1 << uint(levels)
	for i, ch := range charges {
		c := int(real(ch.Z) * float64(side))
		r := int(imag(ch.Z) * float64(side))
		c = clampInt(c, 0, side-1)
		r = clampInt(r, 0, side-1)
		idx := boxIdx(levels, r, c)
		tr.boxes[levels][idx].bodies = append(tr.boxes[levels][idx].bodies, i)
	}
	return tr
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// p2m forms the multipole expansion of leaf box b from its charges.
// M_0 = sum q_i; M_k = -sum q_i z_i^k / k  (z relative to the centre).
func (tr *fmmTree) p2m(level, b int) {
	box := &tr.boxes[level][b]
	for k := range box.m {
		box.m[k] = 0
	}
	for _, i := range box.bodies {
		q := complex(tr.chargeQ(i), 0)
		z := tr.chargeZ(i) - box.center
		box.m[0] += q
		zk := complex(1, 0)
		for k := 1; k <= tr.p; k++ {
			zk *= z
			box.m[k] -= q * zk / complex(float64(k), 0)
		}
	}
}

func (tr *fmmTree) chargeZ(i int) complex128 { return tr.src[i].Z }
func (tr *fmmTree) chargeQ(i int) float64    { return tr.src[i].Q }

// m2m shifts children multipoles into parent box b at level l:
// M'_k = -M_0 z0^k/k + sum_{j=1..k} M_j z0^{k-j} C(k-1, j-1).
func (tr *fmmTree) m2m(l, b int) {
	parent := &tr.boxes[l][b]
	for k := range parent.m {
		parent.m[k] = 0
	}
	for c := 0; c < 4; c++ {
		child := &tr.boxes[l+1][childIdx(l, b, c)]
		z0 := child.center - parent.center
		parent.m[0] += child.m[0]
		for k := 1; k <= tr.p; k++ {
			s := -child.m[0] * cpow(z0, k) / complex(float64(k), 0)
			for j := 1; j <= k; j++ {
				s += child.m[j] * cpow(z0, k-j) * complex(binom(k-1, j-1), 0)
			}
			parent.m[k] += s
		}
	}
}

// m2l converts source box s's multipole into target box b's local
// expansion (both at level l):
// L_0 += M_0 log(-z0) + sum_j M_j (-1)^j / z0^j
// L_k += -M_0/(k z0^k) + (1/z0^k) sum_j M_j (-1)^j C(k+j-1, j-1) / z0^j.
func (tr *fmmTree) m2l(l, s, b int) {
	src := &tr.boxes[l][s]
	dst := &tr.boxes[l][b]
	z0 := src.center - dst.center
	sum0 := src.m[0] * cmplx.Log(-z0)
	sign := 1.0
	for j := 1; j <= tr.p; j++ {
		sign = -sign
		sum0 += src.m[j] * complex(sign, 0) / cpow(z0, j)
	}
	dst.l[0] += sum0
	for k := 1; k <= tr.p; k++ {
		s := -src.m[0] / (complex(float64(k), 0) * cpow(z0, k))
		sign := 1.0
		for j := 1; j <= tr.p; j++ {
			sign = -sign
			s += src.m[j] * complex(sign*binom(k+j-1, j-1), 0) / cpow(z0, j+k)
		}
		dst.l[k] += s
	}
}

// l2l shifts the parent's local expansion into box b at level l:
// L'_k = sum_{j>=k} L_j C(j, k) (-z0)^(j-k), z0 = child - parent.
func (tr *fmmTree) l2l(l, b int) {
	child := &tr.boxes[l][b]
	parent := &tr.boxes[l-1][parentIdx(l, b)]
	z0 := child.center - parent.center
	for k := 0; k <= tr.p; k++ {
		var s complex128
		for j := k; j <= tr.p; j++ {
			s += parent.l[j] * complex(binom(j, k), 0) * cpow(z0, j-k)
		}
		child.l[k] += s
	}
}

// evalLocal evaluates the local expansion of leaf box b at point z.
func (tr *fmmTree) evalLocal(level, b int, z complex128) float64 {
	box := &tr.boxes[level][b]
	dz := z - box.center
	s := box.l[tr.p]
	for k := tr.p - 1; k >= 0; k-- {
		s = s*dz + box.l[k]
	}
	return real(s)
}

func cpow(z complex128, n int) complex128 {
	r := complex(1, 0)
	for i := 0; i < n; i++ {
		r *= z
	}
	return r
}

func binom(n, k int) float64 {
	if k < 0 || k > n {
		return 0
	}
	r := 1.0
	for i := 0; i < k; i++ {
		r = r * float64(n-i) / float64(i+1)
	}
	return r
}

// DirectPotential computes the reference log-potential (for tests).
func DirectPotential(charges []Charge) []float64 {
	n := len(charges)
	phi := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			phi[i] += charges[j].Q * math.Log(cmplx.Abs(charges[i].Z-charges[j].Z))
		}
	}
	return phi
}

// RandomCharges builds deterministic charges in the unit square.
func RandomCharges(n int, seed uint32) []Charge {
	out := make([]Charge, n)
	s := seed
	next := func() float64 {
		s = s*1664525 + 1013904223
		return float64(s>>8) / float64(1<<24)
	}
	for i := range out {
		out[i] = Charge{
			Z: complex(next(), next()),
			Q: next() - 0.5,
		}
	}
	return out
}
