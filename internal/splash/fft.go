package splash

import (
	"fmt"
	"math"
	"math/cmplx"

	"cyclops/internal/arch"
	"cyclops/internal/isa"
	"cyclops/internal/perf"
)

// FFT is the SPLASH-2 FFT kernel: a 1-D complex FFT of n = m*m points
// organised as the six-step (transpose / row-FFT / twiddle / transpose /
// row-FFT / transpose) algorithm over an m x m matrix, with barriers
// between phases. The SPLASH-2 constraint that the points per processor
// be at least sqrt(n) appears here as threads <= m.
//
// Rows are copied into a per-thread scratch buffer mapped to the thread's
// own quad cache for the in-cache row FFTs, then written back to the
// shared matrix — the structure of the original benchmark.

// FFTOpts configures a run.
type FFTOpts struct {
	Config
	// N is the transform length; it must be a power of four (so the
	// matrix is square).
	N int
	// Data, when non-nil, supplies the input (length N); otherwise a
	// deterministic pseudo-random signal is generated. The input is read
	// once, into the kernel's working matrix, and the transform result is
	// written back into Data only when the run succeeds.
	Data []complex128
}

// RunFFT executes the kernel and returns the timing result; the
// transformed data is left in opts.Data (when supplied). Beyond the chip's
// memory, a run allocates the two n-point working matrices A and B and
// little else: no input copy and no twiddle table.
func RunFFT(opts FFTOpts) (*Result, error) {
	n := opts.N
	m := intSqrt(n)
	if m*m != n || n&(n-1) != 0 || n < 4 {
		return nil, fmt.Errorf("splash: FFT length %d is not a power of four", n)
	}
	if opts.Threads > m {
		return nil, fmt.Errorf("splash: FFT of %d points supports at most %d threads (points per processor >= sqrt(n))", n, m)
	}
	mach, err := opts.Machine()
	if err != nil {
		return nil, err
	}

	// A is the working matrix, B the transpose target; 16 bytes/point,
	// on the chip before on the host.
	eaA, err := AllocShared(mach, 16, n)
	if err != nil {
		return nil, err
	}
	eaB, err := AllocShared(mach, 16, n)
	if err != nil {
		return nil, err
	}
	scratch := make([]uint32, opts.Threads)
	for p := range scratch {
		if scratch[p], err = mach.Alloc(16*m, arch.InterestGroup{Mode: arch.GroupOwn}); err != nil {
			return nil, err
		}
	}

	if opts.Data != nil && len(opts.Data) != n {
		return nil, fmt.Errorf("splash: FFT data length %d != N %d", len(opts.Data), n)
	}
	a := make([]complex128, n)
	b := make([]complex128, n)
	if opts.Data != nil {
		copy(a, opts.Data)
	} else {
		seed := uint32(12345)
		for i := range a {
			seed = seed*1664525 + 1013904223
			re := float64(seed>>16)/65536 - 0.5
			seed = seed*1664525 + 1013904223
			im := float64(seed>>16)/65536 - 0.5
			a[i] = complex(re, im)
		}
	}
	bar, err := NewBarrier(mach, opts.Threads, opts.Barrier)
	if err != nil {
		return nil, err
	}

	err = mach.SpawnN(opts.Threads, func(t *perf.T, p int) {
		lo, hi := Span(m, p, opts.Threads)
		// Each six-step phase is a named profiling region, so the
		// profiler's folded stacks and the harness profile table
		// attribute cycles to the paper's algorithm phases.
		phase := func(name string, fn func()) {
			end := t.Region(name)
			fn()
			end()
			endB := t.Region("barrier")
			bar.Wait(t, p)
			endB()
		}

		// Step 1: transpose A -> B.
		phase("transpose", func() { transposeBand(t, a, b, eaA, eaB, m, lo, hi) })
		// Step 2: FFT the rows of B.
		phase("fft_rows", func() { fftRows(t, b, eaB, scratch[p], m, lo, hi, false) })
		// Step 3: twiddle multiply B[i][j] *= w^(i*j).
		phase("twiddle", func() { twiddleBand(t, b, eaB, m, lo, hi) })
		// Step 4: transpose B -> A.
		phase("transpose", func() { transposeBand(t, b, a, eaB, eaA, m, lo, hi) })
		// Step 5: FFT the rows of A.
		phase("fft_rows", func() { fftRows(t, a, eaA, scratch[p], m, lo, hi, false) })
		// Step 6: transpose A -> B (final index order).
		phase("transpose", func() { transposeBand(t, a, b, eaA, eaB, m, lo, hi) })
	})
	if err != nil {
		return nil, err
	}
	if err := mach.Run(); err != nil {
		return nil, err
	}
	copy(opts.Data, b)
	return NewResult("FFT", fmt.Sprintf("%d points, %s barriers", n, opts.Barrier), opts.Threads, mach), nil
}

// intSqrt returns the integer square root for perfect squares.
func intSqrt(n int) int {
	r := int(math.Sqrt(float64(n)))
	for r*r > n {
		r--
	}
	for (r+1)*(r+1) <= n {
		r++
	}
	return r
}

// transposeBand moves rows [lo,hi) of src into the columns of dst.
func transposeBand(t *perf.T, src, dst []complex128, eaSrc, eaDst uint32, m, lo, hi int) {
	for i := lo; i < hi; i++ {
		// Read the row contiguously, scatter to the column.
		v := t.LoadBlock(eaSrc+uint32(16*i*m), 2*m, 8, 8)
		for j := 0; j < m; j++ {
			dst[j*m+i] = src[i*m+j]
		}
		// The column store: one 16-byte point per line visit.
		t.StoreBlock(eaDst+uint32(16*i), m, 16, 16*m, v)
		t.Work(2 * m) // index arithmetic and loop control
	}
}

// twiddleBand multiplies B[i][j] by w_n^(i*j) for rows [lo,hi). Each
// point is visited once, so each factor is computed where it is used, by
// the one expression for w_n^k, rather than read from an n-entry table.
func twiddleBand(t *perf.T, b []complex128, ea uint32, m, lo, hi int) {
	n := m * m
	for i := lo; i < hi; i++ {
		v := t.LoadBlock(ea+uint32(16*i*m), 2*m, 8, 8)
		for j := 0; j < m; j++ {
			k := (i * j) % n
			b[i*m+j] *= cmplx.Rect(1, -2*math.Pi*float64(k)/float64(n))
		}
		// Complex multiply: 4 mul + 2 add = ~3 FMA-class ops per point.
		w := t.FPBlock(isa.PipeBoth, 3*m, v)
		t.StoreBlock(ea+uint32(16*i*m), 2*m, 8, 8, w)
		t.Work(2 * m)
	}
}

// fftRows transforms rows [lo,hi) of x in place, staging each row through
// the thread's own-cache scratch buffer. inverse selects the conjugate
// transform.
func fftRows(t *perf.T, x []complex128, ea, scratch uint32, m, lo, hi int, inverse bool) {
	for i := lo; i < hi; i++ {
		row := x[i*m : (i+1)*m]
		// Copy in: shared loads, local stores.
		v := t.LoadBlock(ea+uint32(16*i*m), 2*m, 8, 8)
		t.StoreBlock(scratch, 2*m, 8, 8, v)
		timeRowFFT(t, scratch, m)
		fftInPlace(row, inverse)
		// Copy out.
		w := t.LoadBlock(scratch, 2*m, 8, 8)
		t.StoreBlock(ea+uint32(16*i*m), 2*m, 8, 8, w)
	}
}

// timeRowFFT charges the cost of an m-point in-place radix-2 FFT working
// in the scratch buffer: per stage, the row streams through the local
// cache and m/2 butterflies of ~10 flops each hit the FPU.
func timeRowFFT(t *perf.T, scratch uint32, m int) {
	stages := 0
	for s := 1; s < m; s <<= 1 {
		stages++
	}
	for s := 0; s < stages; s++ {
		v := t.LoadBlock(scratch, 2*m, 8, 8)
		// Butterfly: complex mul (4M+2A) + two complex adds (4A):
		// ~5 multiply-add class issues per butterfly, m/2 butterflies.
		w := t.FPBlock(isa.PipeBoth, 5*m/2, v)
		t.StoreBlock(scratch, 2*m, 8, 8, w)
		t.Work(m) // loop control and index arithmetic
	}
}

// fftInPlace computes the functional radix-2 FFT on a row.
func fftInPlace(a []complex128, inverse bool) {
	n := len(a)
	// Bit reversal.
	for i, j := 0, 0; i < n; i++ {
		if i < j {
			a[i], a[j] = a[j], a[i]
		}
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j |= bit
	}
	sign := -2.0
	if inverse {
		sign = 2.0
	}
	for span := 2; span <= n; span <<= 1 {
		w := cmplx.Rect(1, sign*math.Pi/float64(span))
		for s := 0; s < n; s += span {
			wk := complex(1, 0)
			for k := 0; k < span/2; k++ {
				u := a[s+k]
				v := a[s+k+span/2] * wk
				a[s+k] = u + v
				a[s+k+span/2] = u - v
				wk *= w
			}
		}
	}
}

// NaiveDFT computes the reference DFT (for tests).
func NaiveDFT(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var s complex128
		for j := 0; j < n; j++ {
			s += x[j] * cmplx.Rect(1, -2*math.Pi*float64(k*j)/float64(n))
		}
		out[k] = s
	}
	return out
}
