package sim

import (
	"fmt"
	"sort"

	"cyclops/internal/isa"
)

// Engine selects a Machine's execution engine. The two tiers share
// every model component — the timing.Ledger charge rules, the cache and
// FPU contention models, the scheduler's round-robin tie order — and are
// required (and tested) to be cycle- and byte-identical; they differ
// only in host-side dispatch cost.
type Engine uint8

const (
	// EngineBlock is the production engine: basic blocks compiled once
	// into slices of pre-bound closures (threaded code), run closure after
	// closure without returning to the scheduler while the thread unit is
	// provably the only one due, under the event-driven timing-wheel
	// scheduler (see block.go, sched.go). It is the zero value: what New
	// gives a machine until SetEngine says otherwise.
	EngineBlock Engine = iota
	// EngineLegacy is the seed interpreter: per-issue fetch+decode and an
	// O(active) min-scan scheduler. Kept as the oracle the block engine is
	// pinned against.
	EngineLegacy
)

// String returns the engine's flag spelling.
func (e Engine) String() string {
	switch e {
	case EngineBlock:
		return "block"
	case EngineLegacy:
		return "legacy"
	}
	return fmt.Sprintf("Engine(%d)", uint8(e))
}

// ParseEngine resolves a -engine flag value.
func ParseEngine(s string) (Engine, error) {
	switch s {
	case "block":
		return EngineBlock, nil
	case "legacy":
		return EngineLegacy, nil
	}
	return EngineBlock, fmt.Errorf("sim: unknown engine %q (want block or legacy)", s)
}

// Engines lists every engine, fastest first — the order equivalence
// sweeps iterate.
func Engines() []Engine { return []Engine{EngineBlock, EngineLegacy} }

// SetEngine selects this machine's engine. Must be called before any
// thread is started: the legacy scheduler scans the active list while
// the block engine pulls from the event queue, so switching mid-run would
// lose queued units.
func (m *Machine) SetEngine(e Engine) {
	if len(m.active) > 0 {
		panic("sim: SetEngine after Start")
	}
	m.engine = e
}

// Engine reports the machine's selected engine.
func (m *Machine) Engine() Engine { return m.engine }

// BlockStats reports the block engine's host-side cache activity: blocks
// compiled (including recompiles after a flush) and whole-cache flushes
// forced by the code-generation counter (self-modifying stores, DMA
// reloads). Zero on the legacy engine.
func (m *Machine) BlockStats() (compiles, flushes uint64) {
	return m.blockCompiles, m.blockFlushes
}

// GenericStats counts the block engine's issue attempts (commits, stalls
// and traps alike) that found no specialized body and went through the
// generic closure into Machine.issue. The count is kept inside that
// closure, so no fast path pays for it. Zero on the legacy engine.
type GenericStats struct {
	Attempts uint64
	ByOp     [isa.NumOps]uint64
}

// Ops lists the opcodes with a non-zero count, most attempts first and by
// opcode number among equals.
func (g GenericStats) Ops() []isa.Op {
	var ops []isa.Op
	for op, n := range g.ByOp {
		if n > 0 {
			ops = append(ops, isa.Op(op))
		}
	}
	sort.SliceStable(ops, func(i, j int) bool { return g.ByOp[ops[i]] > g.ByOp[ops[j]] })
	return ops
}

// GenericStats reports which instructions the block engine still hands to
// Machine.issue (see the type): beside BlockStats, the answer to "which
// engine path ran".
func (m *Machine) GenericStats() GenericStats {
	g := GenericStats{ByOp: m.generic}
	for _, n := range g.ByOp {
		g.Attempts += n
	}
	return g
}

// SchedStats reports the block engine scheduler's host-side activity (see
// the type). Like BlockStats and GenericStats it describes the simulator,
// not the simulated chip, so it stays out of Snapshot and every
// cross-engine comparison.
func (m *Machine) SchedStats() SchedStats { return m.eq.stats }
