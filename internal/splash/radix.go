package splash

import (
	"fmt"

	"cyclops/internal/perf"
)

// Radix is the SPLASH-2 integer radix sort: iterative counting sort over
// digit groups. Each pass builds per-thread histograms of the keys'
// current digit, ranks them with a parallel prefix across threads (each
// thread owns a slice of the digit space), then permutes keys into the
// destination array — the permute's scattered writes are the kernel's
// characteristic memory pattern.

// RadixOpts configures a run.
type RadixOpts struct {
	Config
	// N is the key count.
	N int
	// RadixBits is the digit width (default 8: 256 buckets, 4 passes).
	RadixBits int
	// Keys, when non-nil, supplies the input and receives the sorted
	// output.
	Keys []uint32
}

// RunRadix executes the kernel.
func RunRadix(opts RadixOpts) (*Result, error) {
	n := opts.N
	rb := opts.RadixBits
	if rb == 0 {
		rb = 8
	}
	if rb < 1 || rb > 16 {
		return nil, fmt.Errorf("splash: radix bits %d out of range", rb)
	}
	if n < 1 {
		return nil, fmt.Errorf("splash: radix key count %d", n)
	}
	mach, err := opts.Machine()
	if err != nil {
		return nil, err
	}
	buckets := 1 << rb
	T := opts.Threads
	eaSrc, err := AllocShared(mach, 4, n)
	if err != nil {
		return nil, err
	}
	eaDst, err := AllocShared(mach, 4, n)
	if err != nil {
		return nil, err
	}
	eaHist := make([]uint32, T)
	for t := range eaHist {
		if eaHist[t], err = AllocShared(mach, 4, buckets); err != nil {
			return nil, err
		}
	}
	keys := opts.Keys
	if keys == nil {
		keys = RandomKeys(n, 42)
	}
	if len(keys) != n {
		return nil, fmt.Errorf("splash: key slice length %d != N %d", len(keys), n)
	}

	passes := (32 + rb - 1) / rb

	src := make([]uint32, n)
	dst := make([]uint32, n)
	copy(src, keys)
	// hist[t][d]: thread t's count of digit d in the current pass.
	hist := make([][]int, T)
	for t := 0; t < T; t++ {
		hist[t] = make([]int, buckets)
	}
	// rank[t][d]: global starting index for thread t's digit-d keys.
	rank := make([][]int, T)
	for t := 0; t < T; t++ {
		rank[t] = make([]int, buckets)
	}
	// bucketBase[d]: prefix over all lower digits (built each pass).
	bucketBase := make([]int, buckets+1)
	bar, err := NewBarrier(mach, T, opts.Barrier)
	if err != nil {
		return nil, err
	}

	const chunk = 64
	err = mach.SpawnN(T, func(t *perf.T, p int) {
		lo, hi := Span(n, p, T)
		// Per-thread views of the ping-pong buffers; the backing
		// arrays are shared, the swap below is thread-local.
		src, dst := src, dst
		eaSrc, eaDst := eaSrc, eaDst
		for pass := 0; pass < passes; pass++ {
			shift := uint(pass * rb)
			mask := uint32(buckets - 1)

			// Phase 1: local histogram.
			h := hist[p]
			for d := range h {
				h[d] = 0
			}
			for i := lo; i < hi; i += chunk {
				c := minInt(chunk, hi-i)
				t.LoadBlock(eaSrc+uint32(4*i), c, 4, 4)
				for k := i; k < i+c; k++ {
					h[(src[k]>>shift)&mask]++
				}
				t.Work(3 * c) // shift, mask, increment
			}
			t.StoreBlock(eaHist[p], buckets, 4, 4)
			bar.Wait(t, p)

			// Phase 2: parallel prefix. Thread p ranks its slice of
			// the digit space by reading all threads' histograms.
			dLo, dHi := Span(buckets, p, T)
			for d := dLo; d < dHi; d++ {
				sum := 0
				eas := make([]uint32, T)
				for q := 0; q < T; q++ {
					eas[q] = eaHist[q] + uint32(4*d)
				}
				t.LoadGather(eas, 4)
				for q := 0; q < T; q++ {
					rank[q][d] = sum
					sum += hist[q][d]
				}
				bucketBase[d+1] = sum // per-digit total for now
				t.Work(2 * T)
			}
			bar.Wait(t, p)
			// Every thread folds digit totals into global bases; this
			// is small, serial work replicated rather than shared.
			if p == 0 {
				run := 0
				for d := 0; d < buckets; d++ {
					tot := bucketBase[d+1]
					bucketBase[d] = run
					run += tot
				}
				bucketBase[buckets] = run
				t.Work(3 * buckets)
			}
			bar.Wait(t, p)

			// Phase 3: permute into dst.
			next := make([]int, buckets)
			copy(next, rank[p])
			for i := lo; i < hi; i += chunk {
				c := minInt(chunk, hi-i)
				t.LoadBlock(eaSrc+uint32(4*i), c, 4, 4)
				eas := make([]uint32, c)
				for k := 0; k < c; k++ {
					key := src[i+k]
					d := int((key >> shift) & mask)
					pos := bucketBase[d] + next[d]
					next[d]++
					dst[pos] = key
					eas[k] = eaDst + uint32(4*pos)
				}
				t.StoreScatter(eas, 4)
				t.Work(4 * c)
			}
			bar.Wait(t, p)

			// Swap roles for the next pass (thread-local views).
			src, dst = dst, src
			eaSrc, eaDst = eaDst, eaSrc
		}
	})
	if err != nil {
		return nil, err
	}
	if err := mach.Run(); err != nil {
		return nil, err
	}
	sorted := src
	if passes%2 == 1 {
		sorted = dst
	}
	if opts.Keys != nil {
		copy(opts.Keys, sorted)
	}
	return NewResult("Radix", fmt.Sprintf("%d keys, radix %d", n, buckets), T, mach), nil
}

// RandomKeys builds a deterministic pseudo-random key set.
func RandomKeys(n int, seed uint32) []uint32 {
	keys := make([]uint32, n)
	s := seed
	for i := range keys {
		s = s*1664525 + 1013904223
		keys[i] = s
	}
	return keys
}
