package ray

import (
	"fmt"

	"cyclops/internal/perf"
	"cyclops/internal/splash"
)

// resultFor packages the standard metrics.
func resultFor(threads, w, h int, m *perf.Machine) *splash.Result {
	run, stall := m.TotalRunStall()
	return &splash.Result{
		Name:    "Ray",
		Threads: threads,
		Problem: fmt.Sprintf("%dx%d image", w, h),
		Cycles:  m.Elapsed(),
		Run:     run,
		Stall:   stall,
	}
}
