// Package obs is the cycle-accounting observability layer: a stall-reason
// taxonomy shared by both simulation engines, per-resource counters for
// the contended hardware (cache ports, DRAM banks, quad FPUs), and
// deterministic export formats — a JSON stats snapshot with stable key
// order and a Chrome trace-event writer for chrome://tracing / Perfetto.
//
// The paper's evaluation instrument is cycle accounting: Figure 7 splits
// execution into run and stall cycles, and Section 3 attributes the
// stalls to dependences, cache ports, memory banks, FPU contention and
// barriers. This package gives those attributions names and storage; the
// engines in internal/sim and internal/perf charge every stall cycle to
// exactly one reason, so the per-reason buckets always sum to the legacy
// StallCycles totals (pinned by test).
//
// Everything on the hot path is a fixed-size array indexed by an enum —
// no maps, no interfaces, no allocation, so the accounting is always on:
// there is one build, and every result carries its full breakdown.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
)

// StallReason classifies why a thread unit could not issue. The order is
// fixed: it is the column order of every exported breakdown.
type StallReason uint8

const (
	// DepStall: an in-order issue waited for a source operand
	// (scoreboard interlock, load-use and FP-latency dependences).
	DepStall StallReason = iota
	// CachePortStall: the quad data cache's single 8-byte port was busy.
	CachePortStall
	// BankConflictStall: a DRAM bank was busy or its write-combining
	// backlog exceeded the store buffer depth (write backpressure,
	// fill queueing).
	BankConflictStall
	// FPUStall: the quad-shared FPU pipe was occupied by another thread.
	FPUStall
	// ICacheStall: instruction fetch missed the PIB and waited on the
	// I-cache or a line fill from memory.
	ICacheStall
	// BarrierStall: waiting in a software barrier (timed loads spinning
	// on a flag in memory). The hardware barrier's SPR spin is charged
	// as run cycles, per the paper.
	BarrierStall
	// SleepIdle: blocked in the kernel (sleep, join retry) rather than
	// on a hardware resource.
	SleepIdle
	// SwitchStall: the context-switch penalty charged by the blocked and
	// switch-on-miss issue policies (timing.Policy) on each stall event
	// that forces a thread switch. The fine-grained policy never charges
	// it; the underlying resource wait keeps its own reason, so policy
	// overhead is attributed separately rather than smeared into the
	// memory or dependence buckets.
	SwitchStall

	// NumStallReasons bounds the enum; Breakdown is indexed by it.
	NumStallReasons
)

var reasonNames = [NumStallReasons]string{
	DepStall:          "dep",
	CachePortStall:    "cacheport",
	BankConflictStall: "bankconflict",
	FPUStall:          "fpu",
	ICacheStall:       "icache",
	BarrierStall:      "barrier",
	SleepIdle:         "sleep",
	SwitchStall:       "switch",
}

func (r StallReason) String() string {
	if r < NumStallReasons {
		return reasonNames[r]
	}
	return fmt.Sprintf("StallReason(%d)", uint8(r))
}

// ReasonNames returns the taxonomy in enum (column) order.
func ReasonNames() []string {
	names := make([]string, NumStallReasons)
	copy(names, reasonNames[:])
	return names
}

// Breakdown is a per-reason stall-cycle accumulator. The zero value is
// ready to use; indexing is by StallReason.
type Breakdown [NumStallReasons]uint64

// Add charges n cycles to reason r.
func (b *Breakdown) Add(r StallReason, n uint64) { b[r] += n }

// AddAll accumulates another breakdown into b.
func (b *Breakdown) AddAll(o Breakdown) {
	for i := range b {
		b[i] += o[i]
	}
}

// Total sums all reasons; by construction it equals the legacy
// StallCycles total of whatever the breakdown was charged for.
func (b Breakdown) Total() uint64 {
	var t uint64
	for _, v := range b {
		t += v
	}
	return t
}

// MarshalJSON emits the breakdown as an object keyed by reason name, in
// enum order — hand-built so the key order is stable across runs.
func (b Breakdown) MarshalJSON() ([]byte, error) {
	return marshalCounters(reasonNames[:], b[:]), nil
}

// UnmarshalJSON reads the object form written by MarshalJSON.
func (b *Breakdown) UnmarshalJSON(data []byte) error {
	var m map[string]uint64
	if err := json.Unmarshal(data, &m); err != nil {
		return err
	}
	for r := StallReason(0); r < NumStallReasons; r++ {
		b[r] = m[reasonNames[r]]
	}
	return nil
}

// ResourceStats is the telemetry of one contended hardware resource: a
// quad data cache port, a DRAM bank, or a quad-shared FPU.
type ResourceStats struct {
	// Kind is "cacheport", "drambank" or "fpu".
	Kind string `json:"kind"`
	// ID is the resource index within its kind (quad or bank number).
	ID int `json:"id"`
	// Busy is the cycles the resource was occupied serving requests.
	Busy uint64 `json:"busy"`
	// Grants counts requests served.
	Grants uint64 `json:"grants"`
	// Conflicts counts requests that found the resource busy.
	Conflicts uint64 `json:"conflicts"`
	// WaitCycles is the total queueing delay conflicting requests saw;
	// WaitCycles/elapsed is the mean queue occupancy.
	WaitCycles uint64 `json:"wait_cycles"`
}

// ThreadStat is one thread unit's cycle accounting in a snapshot.
type ThreadStat struct {
	ID     int       `json:"id"`
	Quad   int       `json:"quad"`
	Insts  uint64    `json:"insts"`
	Run    uint64    `json:"run"`
	Stall  uint64    `json:"stall"`
	Stalls Breakdown `json:"stalls"`
	// MemWaits sub-attributes the thread's memory-system waits by
	// location (port/bank/fill/hop); unlike Stalls it counts per-access
	// queueing, so load waits appear here even when the scoreboard later
	// reports them as dep stalls.
	MemWaits MemWaits `json:"mem_waits"`
}

// Snapshot is a complete, self-describing stats capture of one run. Its
// JSON form has stable key order (struct declaration order plus the
// hand-ordered Breakdown marshaller), so snapshots of deterministic runs
// are byte-identical regardless of sweep worker count. MarshalJSON
// (snapjson.go) writes those bytes without reflection.
type Snapshot struct {
	Cycles    uint64          `json:"cycles"`
	Insts     uint64          `json:"insts"`
	Run       uint64          `json:"run"`
	Stall     uint64          `json:"stall"`
	Stalls    Breakdown       `json:"stalls"`
	MemWaits  MemWaits        `json:"mem_waits"`
	Threads   []ThreadStat    `json:"threads"`
	Resources []ResourceStats `json:"resources"`
}

// Finish fills the aggregate fields from the per-thread entries.
func (s *Snapshot) Finish() {
	s.Insts, s.Run, s.Stall, s.Stalls, s.MemWaits = 0, 0, 0, Breakdown{}, MemWaits{}
	for _, t := range s.Threads {
		s.Insts += t.Insts
		s.Run += t.Run
		s.Stall += t.Stall
		s.Stalls.AddAll(t.Stalls)
		s.MemWaits.AddAll(t.MemWaits)
	}
}

// WriteJSON writes the snapshot as indented JSON with a trailing newline.
func (s *Snapshot) WriteJSON(w io.Writer) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// appendUint formats v in base 10 without pulling strconv into the
// marshal path's escape analysis.
func appendUint(buf []byte, v uint64) []byte {
	if v == 0 {
		return append(buf, '0')
	}
	var tmp [20]byte
	i := len(tmp)
	for v > 0 {
		i--
		tmp[i] = byte('0' + v%10)
		v /= 10
	}
	return append(buf, tmp[i:]...)
}
