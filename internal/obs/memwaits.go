package obs

import (
	"encoding/json"
	"fmt"
)

// MemWaitKind classifies the finer sub-attribution of memory-system
// waits. Where the StallReason taxonomy answers "why could this thread
// not issue", MemWaitKind answers "where inside the memory system did an
// access queue or travel": the quad cache's single port, the DRAM bank
// burst queue, a line still in flight from a concurrent miss (MSHR
// semantics), or the cache-switch transit of a remote access. The
// attribution is produced once, in internal/cache, and accumulated only
// by the timing ledger (internal/timing).
type MemWaitKind uint8

const (
	// MemWaitPort: queued for the owning cache's single 8-byte port.
	MemWaitPort MemWaitKind = iota
	// MemWaitBank: DRAM bank burst queueing — fill FIFO delay and
	// write-combining backlog (write backpressure).
	MemWaitBank
	// MemWaitFill: a hit on a line whose fill had not completed waited
	// for the in-flight fill (the model's MSHR semantics).
	MemWaitFill
	// MemWaitHop: cache-switch transit of a remote access beyond the
	// local-access latency of the same outcome class (Table 2: remote
	// hit 17 vs local 6, remote miss 36 vs local 24).
	MemWaitHop

	// NumMemWaitKinds bounds the enum; MemWaits is indexed by it.
	NumMemWaitKinds
)

var memWaitNames = [NumMemWaitKinds]string{
	MemWaitPort: "port",
	MemWaitBank: "bank",
	MemWaitFill: "fill",
	MemWaitHop:  "hop",
}

func (k MemWaitKind) String() string {
	if k < NumMemWaitKinds {
		return memWaitNames[k]
	}
	return fmt.Sprintf("MemWaitKind(%d)", uint8(k))
}

// MemWaitNames returns the sub-attribution taxonomy in enum (column)
// order.
func MemWaitNames() []string {
	names := make([]string, NumMemWaitKinds)
	copy(names, memWaitNames[:])
	return names
}

// MemWaits is a per-kind memory-wait accumulator. The zero value is
// ready to use; indexing is by MemWaitKind.
type MemWaits [NumMemWaitKinds]uint64

// Add charges n cycles to kind k.
func (m *MemWaits) Add(k MemWaitKind, n uint64) { m[k] += n }

// AddAll accumulates another attribution into m.
func (m *MemWaits) AddAll(o MemWaits) {
	for i := range m {
		m[i] += o[i]
	}
}

// Total sums all kinds.
func (m MemWaits) Total() uint64 {
	var t uint64
	for _, v := range m {
		t += v
	}
	return t
}

// MarshalJSON emits the attribution as an object keyed by kind name, in
// enum order — hand-built so the key order is stable across runs.
func (m MemWaits) MarshalJSON() ([]byte, error) {
	return marshalCounters(memWaitNames[:], m[:]), nil
}

// UnmarshalJSON reads the object form written by MarshalJSON.
func (m *MemWaits) UnmarshalJSON(data []byte) error {
	var obj map[string]uint64
	if err := json.Unmarshal(data, &obj); err != nil {
		return err
	}
	for k := MemWaitKind(0); k < NumMemWaitKinds; k++ {
		m[k] = obj[memWaitNames[k]]
	}
	return nil
}
