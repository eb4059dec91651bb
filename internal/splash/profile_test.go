package splash

import "testing"

// At a sampling interval of 1 the profiler samples every charged cycle,
// so the direct-execution engine's sample totals must equal the summed
// run+stall ledger totals exactly.
func TestFFTProfileReconcilesAtIntervalOne(t *testing.T) {
	r, err := RunFFT(FFTOpts{
		Config: Config{Threads: 4, Barrier: SW, ProfileEvery: 1},
		N:      256,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Profile == nil {
		t.Fatal("no profile attached")
	}
	if got, want := r.Profile.TotalSamples(), r.Run+r.Stall; got != want {
		t.Errorf("%d samples at interval 1, ledger run+stall = %d", got, want)
	}
}

// The FFT kernel annotates its six-step phases with T.Region; the report
// must attribute cycles to every phase plus the barrier region.
func TestFFTProfileCoversPhases(t *testing.T) {
	r, err := RunFFT(FFTOpts{
		Config: Config{Threads: 4, Barrier: HW, ProfileEvery: 16},
		N:      1024,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := r.Profile.Report(r.Regions)
	seen := map[string]bool{}
	for _, row := range rep.Rows {
		seen[row.Name] = true
	}
	for _, want := range []string{"transpose", "fft_rows", "twiddle", "barrier"} {
		if !seen[want] {
			t.Errorf("phase %q missing from profile report (rows: %v)", want, rep.Rows)
		}
	}
}

// Timeline interval deltas on the direct-execution engine must telescope
// to the end-of-run totals the Result reports.
func TestFFTTimelineSumMatchesTotals(t *testing.T) {
	r, err := RunFFT(FFTOpts{
		Config: Config{Threads: 4, Barrier: SW, TimelineEvery: 128},
		N:      1024,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Timeline == nil {
		t.Fatal("no timeline attached")
	}
	if len(r.Timeline.Rows()) == 0 {
		t.Fatal("timeline recorded no intervals")
	}
	sum := r.Timeline.Sum()
	if sum.Run != r.Run || sum.Stall != r.Stall {
		t.Errorf("timeline sum run/stall = %d/%d, result totals %d/%d", sum.Run, sum.Stall, r.Run, r.Stall)
	}
	if sum.Stalls != r.Stalls {
		t.Errorf("timeline stall breakdown %v != result %v", sum.Stalls, r.Stalls)
	}
	if sum.MemWaits != r.MemWaits {
		t.Errorf("timeline memwaits %v != result %v", sum.MemWaits, r.MemWaits)
	}
}
