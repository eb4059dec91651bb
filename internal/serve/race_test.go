//go:build race

package serve_test

// raceEnabled: the race detector's instrumentation allocates on its own,
// so allocation budgets are not read under it.
const raceEnabled = true
