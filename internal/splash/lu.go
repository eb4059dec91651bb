package splash

import (
	"fmt"
	"slices"

	"cyclops/internal/isa"
	"cyclops/internal/perf"
)

// LU is the SPLASH-2 dense blocked LU factorization: an n x n matrix is
// divided into B x B blocks assigned to threads in 2-D scatter fashion;
// each outer step factors the diagonal block, solves the perimeter, then
// updates the interior with block matrix-multiplies, with barriers
// between phases. Pivoting is omitted, as in SPLASH-2, so inputs should
// be diagonally dominant.

// LUOpts configures a run.
type LUOpts struct {
	Config
	// N is the matrix dimension; Block the block size (default 16).
	N, Block int
	// A, when non-nil, supplies the matrix in row-major order and
	// receives the packed LU factors when the run succeeds.
	A []float64
}

// RunLU executes the kernel.
func RunLU(opts LUOpts) (*Result, error) {
	n, bs := opts.N, opts.Block
	if bs == 0 {
		bs = 16
	}
	if n <= 0 || n%bs != 0 {
		return nil, fmt.Errorf("splash: LU size %d is not a multiple of block %d", n, bs)
	}
	mach, err := opts.Machine()
	if err != nil {
		return nil, err
	}
	ea, err := AllocShared(mach, 8, n, n)
	if err != nil {
		return nil, err
	}
	if opts.A != nil && len(opts.A) != n*n {
		return nil, fmt.Errorf("splash: LU matrix length %d != %d", len(opts.A), n*n)
	}
	// The factorization works on its own copy of a supplied matrix and
	// writes it back only when the run succeeds.
	a := slices.Clone(opts.A)
	if a == nil {
		a = DominantMatrix(n)
	}

	nb := n / bs
	addr := func(i, j int) uint32 { return ea + uint32(8*(i*n+j)) }
	owner := func(bi, bj int) int { return (bi + bj*nb) % opts.Threads }
	bar, err := NewBarrier(mach, opts.Threads, opts.Barrier)
	if err != nil {
		return nil, err
	}

	err = mach.SpawnN(opts.Threads, func(t *perf.T, p int) {
		for k := 0; k < nb; k++ {
			d := k * bs
			// Phase 1: factor the diagonal block.
			if owner(k, k) == p {
				factorDiag(t, a, n, d, bs, addr)
			}
			bar.Wait(t, p)
			// Phase 2: perimeter solves.
			for j := k + 1; j < nb; j++ {
				if owner(k, j) == p {
					solveRowBlock(t, a, n, d, j*bs, bs, addr)
				}
			}
			for i := k + 1; i < nb; i++ {
				if owner(i, k) == p {
					solveColBlock(t, a, n, i*bs, d, bs, addr)
				}
			}
			bar.Wait(t, p)
			// Phase 3: interior updates.
			for i := k + 1; i < nb; i++ {
				for j := k + 1; j < nb; j++ {
					if owner(i, j) == p {
						updateBlock(t, a, n, i*bs, j*bs, d, bs, addr)
					}
				}
			}
			bar.Wait(t, p)
		}
	})
	if err != nil {
		return nil, err
	}
	if err := mach.Run(); err != nil {
		return nil, err
	}
	if opts.A != nil {
		copy(opts.A, a)
	}
	return NewResult("LU", fmt.Sprintf("%dx%d, %dx%d blocks", n, n, bs, bs), opts.Threads, mach), nil
}

// DominantMatrix builds a deterministic diagonally dominant test matrix.
func DominantMatrix(n int) []float64 {
	a := make([]float64, n*n)
	seed := uint32(7)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			seed = seed*1664525 + 1013904223
			a[i*n+j] = float64(seed>>20)/4096 - 0.5
		}
		a[i*n+i] += float64(n)
	}
	return a
}

// factorDiag performs the unblocked LU of the bs x bs block at (d, d).
func factorDiag(t *perf.T, a []float64, n, d, bs int, addr func(i, j int) uint32) {
	for kk := 0; kk < bs; kk++ {
		pivRow := d + kk
		piv := a[pivRow*n+pivRow]
		// One divide per subdiagonal row plus a rank-1 update.
		v := t.LoadBlock(addr(pivRow, d+kk), bs-kk, 8, 8)
		for ii := kk + 1; ii < bs; ii++ {
			r := d + ii
			l := a[r*n+pivRow] / piv
			a[r*n+pivRow] = l
			for jj := kk + 1; jj < bs; jj++ {
				c := d + jj
				a[r*n+c] -= l * a[pivRow*n+c]
			}
		}
		rows := bs - kk - 1
		if rows > 0 {
			w := t.FDiv(v)
			f := t.FPBlock(isa.PipeBoth, rows*(bs-kk-1), w)
			t.StoreBlock(addr(d+kk+1, d+kk), rows, 8, 8*n, f)
		}
		t.Work(2 * (bs - kk))
	}
}

// solveRowBlock computes U-part: A[d..][c..] = L(d,d)^-1 * A[d..][c..].
func solveRowBlock(t *perf.T, a []float64, n, d, c, bs int, addr func(i, j int) uint32) {
	for ii := 0; ii < bs; ii++ {
		r := d + ii
		// Row r of the target depends on rows above it.
		v := t.LoadBlock(addr(r, c), bs, 8, 8)
		for kk := 0; kk < ii; kk++ {
			l := a[r*n+d+kk]
			for jj := 0; jj < bs; jj++ {
				a[r*n+c+jj] -= l * a[(d+kk)*n+c+jj]
			}
		}
		f := t.FPBlock(isa.PipeBoth, ii*bs, v)
		t.StoreBlock(addr(r, c), bs, 8, 8, f)
		t.Work(bs)
	}
}

// solveColBlock computes L-part: A[r..][d..] = A[r..][d..] * U(d,d)^-1.
func solveColBlock(t *perf.T, a []float64, n, r, d, bs int, addr func(i, j int) uint32) {
	for ii := 0; ii < bs; ii++ {
		row := r + ii
		v := t.LoadBlock(addr(row, d), bs, 8, 8)
		for jj := 0; jj < bs; jj++ {
			c := d + jj
			s := a[row*n+c]
			for kk := 0; kk < jj; kk++ {
				s -= a[row*n+d+kk] * a[(d+kk)*n+c]
			}
			a[row*n+c] = s / a[c*n+c]
		}
		f := t.FPBlock(isa.PipeBoth, bs*bs/2, v)
		g := t.FDiv(f)
		t.StoreBlock(addr(row, d), bs, 8, 8, g)
		t.Work(bs)
	}
}

// updateBlock performs A[r][c] -= A[r][d] * A[d][c] for bs x bs blocks.
func updateBlock(t *perf.T, a []float64, n, r, c, d, bs int, addr func(i, j int) uint32) {
	for ii := 0; ii < bs; ii++ {
		row := r + ii
		// Load the multiplier row and the target row.
		v1 := t.LoadBlock(addr(row, d), bs, 8, 8)
		v2 := t.LoadBlock(addr(row, c), bs, 8, 8)
		for kk := 0; kk < bs; kk++ {
			l := a[row*n+d+kk]
			for jj := 0; jj < bs; jj++ {
				a[row*n+c+jj] -= l * a[(d+kk)*n+c+jj]
			}
		}
		// bs dot products of length bs: bs*bs fused multiply-adds,
		// streaming the pivot-panel rows through the cache.
		v3 := t.LoadBlock(addr(d, c), bs, 8, 8*n)
		f := t.FPBlock(isa.PipeBoth, bs*bs, v1, v2, v3)
		t.StoreBlock(addr(row, c), bs, 8, 8, f)
		t.Work(bs)
	}
}

// LUResidual verifies a factorization: it reconstructs A from the packed
// factors and returns max |L*U - orig| (for tests).
func LUResidual(lu, orig []float64, n int) float64 {
	var worst float64
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for k := 0; k <= minInt(i, j); k++ {
				l := lu[i*n+k]
				if k == i {
					l = 1
				}
				u := lu[k*n+j]
				if k > j {
					continue
				}
				s += l * u
			}
			if d := abs(s - orig[i*n+j]); d > worst {
				worst = d
			}
		}
	}
	return worst
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
