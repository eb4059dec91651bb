package splash

import (
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

// --- LU ---------------------------------------------------------------------

func TestLUFactorsCorrectly(t *testing.T) {
	const n = 64
	orig := DominantMatrix(n)
	a := make([]float64, len(orig))
	copy(a, orig)
	_, err := RunLU(LUOpts{Config: Config{Threads: 4}, N: n, A: a})
	if err != nil {
		t.Fatal(err)
	}
	if r := LUResidual(a, orig, n); r > 1e-8*float64(n) {
		t.Errorf("LU residual = %g", r)
	}
}

func TestLUThreadCountInvariance(t *testing.T) {
	const n = 48
	ref := DominantMatrix(n)
	a1 := append([]float64(nil), ref...)
	a2 := append([]float64(nil), ref...)
	if _, err := RunLU(LUOpts{Config: Config{Threads: 1}, N: n, A: a1}); err != nil {
		t.Fatal(err)
	}
	if _, err := RunLU(LUOpts{Config: Config{Threads: 7}, N: n, A: a2}); err != nil {
		t.Fatal(err)
	}
	for i := range a1 {
		if d := abs(a1[i] - a2[i]); d > 1e-12 {
			t.Fatalf("factors differ at %d by %g", i, d)
		}
	}
}

func TestLUPropertyRandomMatrices(t *testing.T) {
	f := func(seed uint32) bool {
		const n = 32
		orig := DominantMatrix(n)
		// Perturb deterministically from the seed.
		s := seed | 1
		for i := range orig {
			s = s*1664525 + 1013904223
			orig[i] += float64(s>>24) / 1024
		}
		for i := 0; i < n; i++ {
			orig[i*n+i] += float64(n) // keep dominant
		}
		a := append([]float64(nil), orig...)
		if _, err := RunLU(LUOpts{Config: Config{Threads: 3}, N: n, A: a}); err != nil {
			return false
		}
		return LUResidual(a, orig, n) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

func TestLURejectsBadShapes(t *testing.T) {
	if _, err := RunLU(LUOpts{Config: Config{Threads: 1}, N: 50, Block: 16}); err == nil {
		t.Error("non-multiple size accepted")
	}
	if _, err := RunLU(LUOpts{Config: Config{Threads: 200}, N: 64}); err == nil {
		t.Error("too many threads accepted")
	}
}

func TestLUScales(t *testing.T) {
	base, err := RunLU(LUOpts{Config: Config{Threads: 1}, N: 128})
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunLU(LUOpts{Config: Config{Threads: 16}, N: 128})
	if err != nil {
		t.Fatal(err)
	}
	if s := par.Speedup(base); s < 3 {
		t.Errorf("16-thread LU speedup = %.2f, want > 3 (128x128 is small)", s)
	}
}

// --- Radix ------------------------------------------------------------------

func TestRadixSorts(t *testing.T) {
	keys := RandomKeys(10000, 7)
	orig := append([]uint32(nil), keys...)
	_, err := RunRadix(RadixOpts{Config: Config{Threads: 8}, N: len(keys), Keys: keys})
	if err != nil {
		t.Fatal(err)
	}
	if !sort.SliceIsSorted(keys, func(i, j int) bool { return keys[i] < keys[j] }) {
		t.Fatal("output not sorted")
	}
	// Same multiset.
	sort.Slice(orig, func(i, j int) bool { return orig[i] < orig[j] })
	for i := range keys {
		if keys[i] != orig[i] {
			t.Fatalf("key %d: %d != %d (not a permutation)", i, keys[i], orig[i])
		}
	}
}

func TestRadixPropertySorted(t *testing.T) {
	f := func(seed uint32, tc uint8) bool {
		threads := int(tc%16) + 1
		keys := RandomKeys(2000, seed)
		_, err := RunRadix(RadixOpts{Config: Config{Threads: threads}, N: len(keys), Keys: keys})
		if err != nil {
			return false
		}
		return sort.SliceIsSorted(keys, func(i, j int) bool { return keys[i] < keys[j] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Error(err)
	}
}

func TestRadixOddSizesAndWidths(t *testing.T) {
	keys := RandomKeys(1237, 3)
	_, err := RunRadix(RadixOpts{Config: Config{Threads: 5}, N: len(keys), RadixBits: 11, Keys: keys})
	if err != nil {
		t.Fatal(err)
	}
	if !sort.SliceIsSorted(keys, func(i, j int) bool { return keys[i] < keys[j] }) {
		t.Error("11-bit radix failed on odd-size input")
	}
	if _, err := RunRadix(RadixOpts{Config: Config{Threads: 1}, N: 0}); err == nil {
		t.Error("zero keys accepted")
	}
	if _, err := RunRadix(RadixOpts{Config: Config{Threads: 1}, N: 10, RadixBits: 20}); err == nil {
		t.Error("20-bit radix accepted")
	}
}

func TestRadixScales(t *testing.T) {
	base, err := RunRadix(RadixOpts{Config: Config{Threads: 1}, N: 1 << 15})
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunRadix(RadixOpts{Config: Config{Threads: 16}, N: 1 << 15})
	if err != nil {
		t.Fatal(err)
	}
	if s := par.Speedup(base); s < 4 {
		t.Errorf("16-thread radix speedup = %.2f, want > 4", s)
	}
}

// --- Ocean ------------------------------------------------------------------

func TestOceanReducesResidual(t *testing.T) {
	const n = 32
	g := OceanGrid(n)
	before := OceanResidual(g, n)
	_, err := RunOcean(OceanOpts{Config: Config{Threads: 4}, N: n, Iters: 50, Grid: g})
	if err != nil {
		t.Fatal(err)
	}
	after := OceanResidual(g, n)
	if after >= before/4 {
		t.Errorf("residual %g -> %g: SOR not converging", before, after)
	}
}

func TestOceanThreadCountInvariance(t *testing.T) {
	const n = 24
	g1 := OceanGrid(n)
	g2 := OceanGrid(n)
	if _, err := RunOcean(OceanOpts{Config: Config{Threads: 1}, N: n, Iters: 8, Grid: g1}); err != nil {
		t.Fatal(err)
	}
	if _, err := RunOcean(OceanOpts{Config: Config{Threads: 6}, N: n, Iters: 8, Grid: g2}); err != nil {
		t.Fatal(err)
	}
	for i := range g1 {
		if abs(g1[i]-g2[i]) > 1e-12 {
			t.Fatalf("grids diverge at %d", i)
		}
	}
}

func TestOceanBoundariesFixed(t *testing.T) {
	const n = 16
	g := OceanGrid(n)
	if _, err := RunOcean(OceanOpts{Config: Config{Threads: 2}, N: n, Iters: 5, Grid: g}); err != nil {
		t.Fatal(err)
	}
	stride := n + 2
	for j := 0; j < stride; j++ {
		if g[j] != 100 {
			t.Fatalf("top boundary changed at %d", j)
		}
		if g[(stride-1)*stride+j] != 0 {
			t.Fatalf("bottom boundary changed at %d", j)
		}
	}
}

func TestOceanRejectsBadShapes(t *testing.T) {
	if _, err := RunOcean(OceanOpts{Config: Config{Threads: 1}, N: 1}); err == nil {
		t.Error("tiny grid accepted")
	}
	if _, err := RunOcean(OceanOpts{Config: Config{Threads: 64}, N: 32}); err == nil {
		t.Error("more threads than rows accepted")
	}
}

func TestOceanScales(t *testing.T) {
	base, err := RunOcean(OceanOpts{Config: Config{Threads: 1}, N: 128, Iters: 4})
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunOcean(OceanOpts{Config: Config{Threads: 16}, N: 128, Iters: 4})
	if err != nil {
		t.Fatal(err)
	}
	if s := par.Speedup(base); s < 5 {
		t.Errorf("16-thread ocean speedup = %.2f, want > 5", s)
	}
}

// TestRadixGeneratedKeysMatchSupplied: a run with no Keys sorts the keys
// it generates in place, RandomKeys(N, 42), exactly as a run handed them.
func TestRadixGeneratedKeysMatchSupplied(t *testing.T) {
	const n = 3000
	for _, threads := range []int{1, 4, 16} {
		opts := RadixOpts{Config: Config{Threads: threads}, N: n}
		gen, err := RunRadix(opts)
		if err != nil {
			t.Fatal(err)
		}
		opts.Keys = RandomKeys(n, 42)
		sup, err := RunRadix(opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gen, sup) {
			t.Errorf("threads=%d: generated keys %+v, supplied keys %+v", threads, gen, sup)
		}
		want := RandomKeys(n, 42)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		if !reflect.DeepEqual(opts.Keys, want) {
			t.Errorf("threads=%d: output is not RandomKeys(%d, 42) sorted", threads, n)
		}
	}
}

// TestFailedRunLeavesInputUntouched: a run that does not finish writes
// nothing back into the caller's FFT Data, Radix Keys, LU matrix, Barnes
// Bodies, Ocean Grid, or FMM Charges and Phi. Each limit stops the run
// after its threads have started work on the input.
func TestFailedRunLeavesInputUntouched(t *testing.T) {
	data := make([]complex128, 256)
	for i := range data {
		data[i] = complex(float64(i), 1)
	}
	orig := append([]complex128(nil), data...)
	if _, err := RunFFT(FFTOpts{Config: Config{Threads: 4, MaxCycles: 100}, N: len(data), Data: data}); err == nil {
		t.Fatal("FFT finished inside 100 cycles")
	}
	if !reflect.DeepEqual(data, orig) {
		t.Error("a failed FFT run wrote into Data")
	}
	keys := RandomKeys(1000, 5)
	origKeys := append([]uint32(nil), keys...)
	if _, err := RunRadix(RadixOpts{Config: Config{Threads: 4, MaxCycles: 100}, N: len(keys), Keys: keys}); err == nil {
		t.Fatal("Radix finished inside 100 cycles")
	}
	if !reflect.DeepEqual(keys, origKeys) {
		t.Error("a failed Radix run wrote into Keys")
	}
	a := DominantMatrix(32)
	origA := slices.Clone(a)
	if _, err := RunLU(LUOpts{Config: Config{Threads: 4, MaxCycles: 2000}, N: 32, A: a}); err == nil {
		t.Fatal("LU finished inside 2,000 cycles")
	}
	if !slices.Equal(a, origA) {
		t.Error("a failed LU run wrote into A")
	}
	bodies := PlummerBodies(64, 99)
	origBodies := slices.Clone(bodies)
	if _, err := RunBarnes(BarnesOpts{Config: Config{Threads: 4, MaxCycles: 20000}, NBodies: 64, Bodies: bodies}); err == nil {
		t.Fatal("Barnes finished inside 20,000 cycles")
	}
	if !slices.Equal(bodies, origBodies) {
		t.Error("a failed Barnes run wrote into Bodies")
	}
	grid := OceanGrid(16)
	origGrid := slices.Clone(grid)
	if _, err := RunOcean(OceanOpts{Config: Config{Threads: 4, MaxCycles: 2000}, N: 16, Grid: grid}); err == nil {
		t.Fatal("Ocean finished inside 2,000 cycles")
	}
	if !slices.Equal(grid, origGrid) {
		t.Error("a failed Ocean run wrote into Grid")
	}
	charges := RandomCharges(64, 17)
	origCharges := slices.Clone(charges)
	phi := make([]float64, 64)
	if _, err := RunFMM(FMMOpts{Config: Config{Threads: 4, MaxCycles: 2000}, NBodies: 64, Charges: charges, Phi: phi}); err == nil {
		t.Fatal("FMM finished inside 2,000 cycles")
	}
	if !slices.Equal(charges, origCharges) || slices.ContainsFunc(phi, func(v float64) bool { return v != 0 }) {
		t.Error("a failed FMM run wrote into Charges or Phi")
	}
}
