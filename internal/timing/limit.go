package timing

import "errors"

// ErrCycleLimit is what a run of either machine — the instruction-level
// simulator or the direct-execution runtime — fails with, wrapped, when
// simulated time passes its MaxCycles; match it with errors.Is. Its text
// is the phrase both machines' errors wrap it as, in "sim: cycle limit
// 5000 exceeded".
var ErrCycleLimit = errors.New("cycle limit")

// Limit is the one MaxCycles rule of both machines: it resolves a
// MaxCycles to the last cycle a run may reach, 0 (no limit) to the
// largest cycle there is, so a run's every limit check is one compare.
func Limit(maxCycles uint64) uint64 {
	if maxCycles == 0 {
		return ^uint64(0)
	}
	return maxCycles
}
