package sim

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"cyclops/internal/isa"
	"cyclops/internal/obs"
)

// TraceEntry records one issued instruction.
type TraceEntry struct {
	Cycle uint64
	TID   int
	PC    uint32
	Word  uint32
}

// String renders the entry with disassembly.
func (e TraceEntry) String() string {
	return fmt.Sprintf("%10d  t%03d  %06x  %s", e.Cycle, e.TID, e.PC, isa.Decode(e.Word))
}

// TraceBuffer is a fixed-capacity ring of the most recent issues — the
// first tool to reach for when a program traps or hangs on the simulator.
type TraceBuffer struct {
	entries []TraceEntry
	next    int
	full    bool
	// Filter restricts recording to one thread unit when >= 0.
	Filter int
}

// NewTraceBuffer holds the last n issues.
func NewTraceBuffer(n int) *TraceBuffer {
	if n < 1 {
		n = 1
	}
	return &TraceBuffer{entries: make([]TraceEntry, n), Filter: -1}
}

// record appends an entry, overwriting the oldest.
func (tb *TraceBuffer) record(e TraceEntry) {
	if tb.Filter >= 0 && e.TID != tb.Filter {
		return
	}
	tb.entries[tb.next] = e
	tb.next++
	if tb.next == len(tb.entries) {
		tb.next = 0
		tb.full = true
	}
}

// Entries returns the recorded issues, oldest first.
func (tb *TraceBuffer) Entries() []TraceEntry {
	if !tb.full {
		return append([]TraceEntry(nil), tb.entries[:tb.next]...)
	}
	out := make([]TraceEntry, 0, len(tb.entries))
	out = append(out, tb.entries[tb.next:]...)
	out = append(out, tb.entries[:tb.next]...)
	return out
}

// Len reports how many entries are held.
func (tb *TraceBuffer) Len() int {
	if tb.full {
		return len(tb.entries)
	}
	return tb.next
}

// ChromeTrace renders the machine's trace buffer as Chrome trace-event
// JSON: one timeline per thread unit (grouped by quad as the process),
// one slice per issued instruction, and — when the observability layer is
// compiled in — one "memwait" counter sample per unit publishing its
// final port/bank/fill/hop memory-wait attribution. A slice spans from
// the instruction's issue to the unit's next issue, so stalls show up as
// long slices on the instruction that preceded them; chrome://tracing
// and Perfetto both load the output directly.
func (m *Machine) ChromeTrace(w io.Writer) error {
	if m.Trace == nil {
		return fmt.Errorf("sim: no trace buffer attached (set Machine.Trace)")
	}
	entries := m.Trace.Entries()

	// A slice lasts until its unit issues again; the final issue of each
	// unit gets one cycle.
	durs := make([]uint64, len(entries))
	nextIssue := make(map[int]uint64)
	for i := len(entries) - 1; i >= 0; i-- {
		e := entries[i]
		if nxt, ok := nextIssue[e.TID]; ok && nxt > e.Cycle {
			durs[i] = nxt - e.Cycle
		} else {
			durs[i] = 1
		}
		nextIssue[e.TID] = e.Cycle
	}

	tids := make([]int, 0, len(nextIssue))
	for tid := range nextIssue {
		tids = append(tids, tid)
	}
	sort.Ints(tids)
	threads := make([]obs.TraceThread, 0, len(tids))
	for _, tid := range tids {
		threads = append(threads, obs.TraceThread{
			PID:  m.Chip.Cfg.QuadOf(tid),
			TID:  tid,
			Name: fmt.Sprintf("TU %d", tid),
		})
	}

	slices := make([]obs.TraceSlice, 0, len(entries))
	for i, e := range entries {
		slices = append(slices, obs.TraceSlice{
			Name:  isa.Decode(e.Word).String(),
			PID:   m.Chip.Cfg.QuadOf(e.TID),
			TID:   e.TID,
			Start: e.Cycle,
			Dur:   durs[i],
			Args: [][2]string{
				{"pc", fmt.Sprintf("%#x", e.PC)},
				{"word", fmt.Sprintf("%#08x", e.Word)},
			},
		})
	}

	// Publish each traced unit's memory-wait attribution as a counter
	// sample at its last recorded issue, in the same kind order as the
	// breakdown table columns.
	var counters []obs.TraceCounter
	lastIssue := make(map[int]uint64, len(tids))
	for _, e := range entries { // oldest first: last write wins
		lastIssue[e.TID] = e.Cycle
	}
	names := obs.MemWaitNames()
	for _, tid := range tids {
		tu := m.TUs[tid]
		series := make([][2]string, len(names))
		for k, name := range names {
			series[k] = [2]string{name, fmt.Sprintf("%d", tu.MemWaits[obs.MemWaitKind(k)])}
		}
		counters = append(counters, obs.TraceCounter{
			Name:   "memwait",
			PID:    m.Chip.Cfg.QuadOf(tid),
			TID:    tid,
			At:     lastIssue[tid],
			Series: series,
		})
	}
	// An attached timeline adds time-resolved chip-wide counter
	// tracks (per-interval stall/memwait/busy deltas) on pid 0.
	if m.TL != nil {
		counters = append(counters, m.TL.CounterTracks()...)
	}
	return obs.WriteChromeTrace(w, threads, slices, counters)
}

// Dump renders the buffer, oldest first.
func (tb *TraceBuffer) Dump() string { return tb.DumpLast(tb.Len()) }

// DumpLast renders the n most recent entries, oldest first.
func (tb *TraceBuffer) DumpLast(n int) string {
	entries := tb.Entries()
	entries = entries[max(0, len(entries)-n):]
	var sb strings.Builder
	sb.WriteString("     cycle  unit      pc  instruction\n")
	for _, e := range entries {
		sb.WriteString(e.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}
