package splash

import (
	"fmt"
	"math"
	"math/cmplx"
	"reflect"
	"testing"

	"cyclops/internal/arch"
	"cyclops/internal/core"
	"cyclops/internal/isa"
	"cyclops/internal/perf"
)

func maxErr(a, b []complex128) float64 {
	var m float64
	for i := range a {
		if d := cmplx.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

func TestFFTMatchesNaiveDFT(t *testing.T) {
	for _, n := range []int{16, 64, 256} {
		in := make([]complex128, n)
		for i := range in {
			in[i] = complex(float64(i%7)-3, float64(i%5)-2)
		}
		want := NaiveDFT(in)
		got := make([]complex128, n)
		copy(got, in)
		_, err := RunFFT(FFTOpts{Config: Config{Threads: 4}, N: n, Data: got})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if e := maxErr(got, want); e > 1e-6*float64(n) {
			t.Errorf("n=%d: max error %g vs naive DFT", n, e)
		}
	}
}

func TestFFTResultIndependentOfThreads(t *testing.T) {
	const n = 256
	in := make([]complex128, n)
	for i := range in {
		in[i] = complex(float64(i), -float64(i%3))
	}
	ref := make([]complex128, n)
	copy(ref, in)
	if _, err := RunFFT(FFTOpts{Config: Config{Threads: 1}, N: n, Data: ref}); err != nil {
		t.Fatal(err)
	}
	for _, threads := range []int{2, 8, 16} {
		got := make([]complex128, n)
		copy(got, in)
		if _, err := RunFFT(FFTOpts{Config: Config{Threads: threads}, N: n, Data: got}); err != nil {
			t.Fatal(err)
		}
		if e := maxErr(got, ref); e > 1e-9 {
			t.Errorf("threads=%d: result differs by %g", threads, e)
		}
	}
}

func TestFFTRejectsBadShapes(t *testing.T) {
	if _, err := RunFFT(FFTOpts{Config: Config{Threads: 1}, N: 128}); err == nil {
		t.Error("128 (not a power of four) accepted")
	}
	if _, err := RunFFT(FFTOpts{Config: Config{Threads: 32}, N: 256}); err == nil {
		t.Error("more threads than sqrt(n) accepted (SPLASH-2 constraint)")
	}
	if _, err := RunFFT(FFTOpts{Config: Config{Threads: 0}, N: 256}); err == nil {
		t.Error("zero threads accepted")
	}
}

func TestFFTScalesWithThreads(t *testing.T) {
	base, err := RunFFT(FFTOpts{Config: Config{Threads: 1}, N: 4096})
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunFFT(FFTOpts{Config: Config{Threads: 16}, N: 4096})
	if err != nil {
		t.Fatal(err)
	}
	s := par.Speedup(base)
	if s < 6 {
		t.Errorf("16-thread speedup = %.2f, want > 6", s)
	}
	if s > 16.5 {
		t.Errorf("16-thread speedup = %.2f exceeds thread count", s)
	}
}

func TestFFTHardwareBarriersReduceStalls(t *testing.T) {
	// Figure 7: hardware barriers trade memory-stall cycles for cheap
	// run cycles, lowering total time.
	hw, err := RunFFT(FFTOpts{Config: Config{Threads: 16, Barrier: HW}, N: 256})
	if err != nil {
		t.Fatal(err)
	}
	sw, err := RunFFT(FFTOpts{Config: Config{Threads: 16, Barrier: SW}, N: 256})
	if err != nil {
		t.Fatal(err)
	}
	if hw.Cycles >= sw.Cycles {
		t.Errorf("hw barrier total %d not below sw %d", hw.Cycles, sw.Cycles)
	}
	if hw.Stall >= sw.Stall {
		t.Errorf("hw barrier stalls %d not below sw %d", hw.Stall, sw.Stall)
	}
}

func TestFFTDeterministic(t *testing.T) {
	r1, err := RunFFT(FFTOpts{Config: Config{Threads: 8}, N: 1024})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunFFT(FFTOpts{Config: Config{Threads: 8}, N: 1024})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Cycles != r2.Cycles || r1.Run != r2.Run || r1.Stall != r2.Stall {
		t.Errorf("repeat runs differ: %+v vs %+v", r1, r2)
	}
}

// TestFFTLeavesMemoryUnbacked: a perf-runtime run charges the chip's
// timing model and keeps its data in native Go values, so it never writes
// functional memory and no page of it is ever allocated.
func TestFFTLeavesMemoryUnbacked(t *testing.T) {
	chip := core.MustNew(arch.Default())
	if _, err := RunFFT(FFTOpts{Config: Config{Threads: 8, Chip: chip}, N: 1024}); err != nil {
		t.Fatal(err)
	}
	if got := chip.Mem.BackedBytes(); got != 0 {
		t.Errorf("a perf-runtime run backed %d B of functional memory", got)
	}
}

// BenchmarkFFT16K is the benchmark's fft_perf op in-package: 16K points on
// 64 threads, one run per barrier kind, each held to the cycle count
// benchmark/golden.json pins for it.
func BenchmarkFFT16K(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for kind, want := range map[BarrierKind]uint64{HW: 158266, SW: 161310} {
			r, err := RunFFT(FFTOpts{Config: Config{Threads: 64, Barrier: kind}, N: 16384})
			if err != nil {
				b.Fatal(err)
			}
			if r.Cycles != want {
				b.Fatalf("%s barriers: %d cycles, want %d", kind, r.Cycles, want)
			}
		}
	}
}

// TestFFTMatchesTableTwiddles: computing each twiddle factor where it is
// used, with the input read once into the working matrix, gives the same
// transform, bit for bit, and the same timing as the kernel that read its
// factors from an n-entry table and copied its input (fftWithTable), with
// and without a supplied input.
func TestFFTMatchesTableTwiddles(t *testing.T) {
	for _, n := range []int{16, 256, 4096} {
		for _, threads := range []int{1, 4, 16} {
			if threads > intSqrt(n) {
				continue // the kernel refuses it (points per processor >= sqrt(n))
			}
			opts := FFTOpts{Config: Config{Threads: threads}, N: n}
			wantRes, want, err := fftWithTable(opts)
			if err != nil {
				t.Fatal(err)
			}
			gotRes, err := RunFFT(opts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(gotRes, wantRes) {
				t.Errorf("n=%d threads=%d, generated input: result %+v, table kernel %+v", n, threads, gotRes, wantRes)
			}

			in := make([]complex128, n)
			for i := range in {
				in[i] = complex(math.Sin(float64(i)), float64(i%11)-5)
			}
			opts.Data = append([]complex128(nil), in...)
			wantRes, want, err = fftWithTable(opts)
			if err != nil {
				t.Fatal(err)
			}
			opts.Data = append([]complex128(nil), in...)
			gotRes, err = RunFFT(opts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(gotRes, wantRes) {
				t.Errorf("n=%d threads=%d, supplied input: result %+v, table kernel %+v", n, threads, gotRes, wantRes)
			}
			for i, w := range want {
				g := opts.Data[i]
				if math.Float64bits(real(g)) != math.Float64bits(real(w)) || math.Float64bits(imag(g)) != math.Float64bits(imag(w)) {
					t.Fatalf("n=%d threads=%d: point %d is %v, table kernel %v", n, threads, i, g, w)
				}
			}
		}
	}
}

// fftWithTable is RunFFT as it was before its twiddle factors were
// computed in place: the input is generated into (or taken from) a slice
// of its own and copied into the working matrix, and the factors come
// from a table of all n of them. It returns the transform whether or not
// opts.Data is set.
func fftWithTable(opts FFTOpts) (*Result, []complex128, error) {
	n := opts.N
	m := intSqrt(n)
	mach, err := opts.Machine()
	if err != nil {
		return nil, nil, err
	}
	eaA, err := AllocShared(mach, 16, n)
	if err != nil {
		return nil, nil, err
	}
	eaB, err := AllocShared(mach, 16, n)
	if err != nil {
		return nil, nil, err
	}
	scratch := make([]uint32, opts.Threads)
	for p := range scratch {
		if scratch[p], err = mach.Alloc(16*m, arch.InterestGroup{Mode: arch.GroupOwn}); err != nil {
			return nil, nil, err
		}
	}
	data := opts.Data
	if data == nil {
		data = make([]complex128, n)
		seed := uint32(12345)
		for i := range data {
			seed = seed*1664525 + 1013904223
			re := float64(seed>>16)/65536 - 0.5
			seed = seed*1664525 + 1013904223
			im := float64(seed>>16)/65536 - 0.5
			data[i] = complex(re, im)
		}
	}
	a := make([]complex128, n)
	b := make([]complex128, n)
	copy(a, data)
	tw := make([]complex128, n)
	for k := range tw {
		angle := -2 * math.Pi * float64(k) / float64(n)
		tw[k] = cmplx.Rect(1, angle)
	}
	bar, err := NewBarrier(mach, opts.Threads, opts.Barrier)
	if err != nil {
		return nil, nil, err
	}
	err = mach.SpawnN(opts.Threads, func(t *perf.T, p int) {
		lo, hi := Span(m, p, opts.Threads)
		phase := func(name string, fn func()) {
			end := t.Region(name)
			fn()
			end()
			endB := t.Region("barrier")
			bar.Wait(t, p)
			endB()
		}
		phase("transpose", func() { transposeBand(t, a, b, eaA, eaB, m, lo, hi) })
		phase("fft_rows", func() { fftRows(t, b, eaB, scratch[p], m, lo, hi, false) })
		phase("twiddle", func() {
			for i := lo; i < hi; i++ {
				v := t.LoadBlock(eaB+uint32(16*i*m), 2*m, 8, 8)
				for j := 0; j < m; j++ {
					b[i*m+j] *= tw[(i*j)%n]
				}
				w := t.FPBlock(isa.PipeBoth, 3*m, v)
				t.StoreBlock(eaB+uint32(16*i*m), 2*m, 8, 8, w)
				t.Work(2 * m)
			}
		})
		phase("transpose", func() { transposeBand(t, b, a, eaB, eaA, m, lo, hi) })
		phase("fft_rows", func() { fftRows(t, a, eaA, scratch[p], m, lo, hi, false) })
		phase("transpose", func() { transposeBand(t, a, b, eaA, eaB, m, lo, hi) })
	})
	if err != nil {
		return nil, nil, err
	}
	if err := mach.Run(); err != nil {
		return nil, nil, err
	}
	copy(data, b)
	return NewResult("FFT", fmt.Sprintf("%d points, %s barriers", n, opts.Barrier), opts.Threads, mach), b, nil
}
