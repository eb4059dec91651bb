package md

import (
	"fmt"

	"cyclops/internal/perf"
	"cyclops/internal/splash"
)

// resultFor packages the standard metrics.
func resultFor(threads, n, steps int, m *perf.Machine) *splash.Result {
	run, stall := m.TotalRunStall()
	return &splash.Result{
		Name:    "MD",
		Threads: threads,
		Problem: fmt.Sprintf("%d particles, %d steps", n, steps),
		Cycles:  m.Elapsed(),
		Run:     run,
		Stall:   stall,
	}
}
