//go:build race

package sim

// raceEnabled: the race detector's instrumentation allocates on its own,
// so allocation budgets are logged, not enforced, under it.
const raceEnabled = true
