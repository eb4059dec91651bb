package splash

import (
	"runtime"
	"testing"
	"unsafe"

	"cyclops/internal/arch"
	"cyclops/internal/core"
)

// hostAllowance is what a run may allocate on the host beyond its kernel's
// own working arrays: the perf machine, its thread coroutines, the
// barrier, the result, and each thread's own scratch buffers.
const hostAllowance = 16 << 10

// TestKernelHostAllocationBudget: on a chip it is handed, a run of FFT,
// Radix or Barnes allocates its kernel's working arrays and a fixed
// allowance, and nothing that grows with the problem beyond them: no copy
// of its input, no twiddle table, no buffer per chunk, body or pass.
func TestKernelHostAllocationBudget(t *testing.T) {
	const threads = 4
	const fftN, radixN, bodies = 4096, 4096, 256
	cfg := Config{Threads: threads, Chip: core.MustNew(arch.Default())}

	// Barnes runs one step, so its tree is the one built over its
	// initial bodies, by the same appends as here.
	treeBytes := allocated(func() { (&octTree{}).build(PlummerBodies(bodies, 99)) }) -
		allocated(func() { PlummerBodies(bodies, 99) })
	buckets := 256
	for _, k := range []struct {
		name string
		own  uint64 // the kernel's working arrays, in bytes
		run  func() error
	}{
		{"FFT", 2 * 16 * fftN, func() error { // A and B
			_, err := RunFFT(FFTOpts{Config: cfg, N: fftN})
			return err
		}},
		{"Radix", 2*4*radixN + 3*threads*uint64(buckets)*8, func() error { // src, dst; hist, rank, each thread's cursors
			_, err := RunRadix(RadixOpts{Config: cfg, N: radixN})
			return err
		}},
		{"Barnes", bodies*uint64(unsafe.Sizeof(Body{})) + treeBytes, func() error { // the bodies and the tree
			_, err := RunBarnes(BarnesOpts{Config: cfg, NBodies: bodies, Steps: 1})
			return err
		}},
	} {
		var err error
		run := func() {
			if err = cfg.Chip.ResetTo(cfg.Chip.Cfg); err == nil {
				err = k.run()
			}
		}
		run() // the chip backs the pages and lines the run touches
		got := allocated(run)
		if err != nil {
			t.Fatalf("%s: %v", k.name, err)
		}
		if budget := k.own + hostAllowance; got > budget {
			msg := "%s allocated %d B on the host, over its budget of %d B (%d B of working arrays)"
			if raceEnabled {
				t.Logf("race detector on, budget not enforced: "+msg, k.name, got, budget, k.own)
				continue
			}
			t.Errorf(msg, k.name, got, budget, k.own)
		}
	}
}

// allocated returns the bytes the heap allocated while f ran.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestTreeBuildAllocatesItsNodesOnce: the first build of a Barnes tree
// sizes its node array from the body count instead of growing it by
// appending, so it allocates at most 1.5x the array it ends with.
func TestTreeBuildAllocatesItsNodesOnce(t *testing.T) {
	for _, n := range []int{64, 256, 1024} {
		bodies := PlummerBodies(n, 99)
		tr := &octTree{}
		got := allocated(func() { tr.build(bodies) })
		final := uint64(len(tr.nodes)) * uint64(unsafe.Sizeof(octNode{}))
		if got > final*3/2 {
			msg := "%d bodies: the first build allocated %d B for a %d B node array"
			if raceEnabled {
				t.Logf("race detector on, bound not enforced: "+msg, n, got, final)
				continue
			}
			t.Errorf(msg, n, got, final)
		}
	}
}
