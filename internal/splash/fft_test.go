package splash

import (
	"math/cmplx"
	"testing"

	"cyclops/internal/arch"
	"cyclops/internal/core"
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
