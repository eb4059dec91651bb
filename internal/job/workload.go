package job

import (
	"encoding/json"
	"sort"
	"sync"

	"cyclops/internal/arch"
	"cyclops/internal/obs"
	"cyclops/internal/sim"
	"cyclops/internal/timing"
)

// Result is the serializable outcome of one run. Hit and miss must be
// byte-identical: the Runner always returns a Result decoded from its
// canonical encoding, whether that encoding came from the cache or from
// an execution a moment earlier, so a warm sweep renders the same bytes
// as a cold one by construction.
type Result struct {
	// Cycles is the run's elapsed simulated time; Insts the instructions
	// issued (0 for direct-execution workloads, which have no guest
	// instruction stream).
	Cycles uint64 `json:"cycles"`
	Insts  uint64 `json:"insts,omitempty"`
	// Run and Stall are the cycle-accounting totals summed over thread
	// units; Stalls splits Stall by reason and MemWaits sub-attributes
	// memory waits by location.
	Run      uint64        `json:"run,omitempty"`
	Stall    uint64        `json:"stall,omitempty"`
	Stalls   obs.Breakdown `json:"stalls"`
	MemWaits obs.MemWaits  `json:"mem_waits"`
	// Output is the console output (program workload).
	Output []byte `json:"output,omitempty"`
	// Snapshot is the deterministic stats snapshot JSON, when requested.
	Snapshot json.RawMessage `json:"snapshot,omitempty"`
	// Extra carries the workload-specific payload (e.g. STREAM's
	// per-repetition timings), encoded by the workload that produced it.
	Extra json.RawMessage `json:"extra,omitempty"`
}

// EncodeResult renders the canonical byte form stored in the cache.
func EncodeResult(r *Result) ([]byte, error) { return json.Marshal(r) }

// DecodeResult reads the canonical byte form back. Every caller gets its
// own decoded copy, so results can be consumed without aliasing worries.
func DecodeResult(data []byte) (*Result, error) {
	var r Result
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, err
	}
	return &r, nil
}

// RunContext hands a workload its resolved execution parameters: the
// canonical spec plus the parsed configuration and policy. These are a
// run's whole input: there is no process state for a workload to consult
// (sweep workers and serve handlers run different points concurrently).
// Every workload hands Spec.MaxCycles to the machine it runs on. Engine
// is the Runner's instruction engine (Runner.Engine), for workloads that
// boot a sim.Machine to pass to SetEngine; it never changes a result.
type RunContext struct {
	Spec   *Spec
	Config arch.Config
	Engine sim.Engine
	Policy timing.Policy
}

// Workload is one registered run kind.
type Workload struct {
	// Name is the spec spelling.
	Name string
	// Canon re-encodes args through the workload's argument schema,
	// validating them; equivalent spellings must encode identically.
	Canon func(args json.RawMessage) (json.RawMessage, error)
	// Run executes one canonicalized point.
	Run func(ctx *RunContext) (*Result, error)
}

var (
	workloadMu  sync.RWMutex
	workloads   = map[string]Workload{}
	workloadIDs []string
)

// Register adds a workload. Duplicate names panic: registration happens
// in package init, where a collision is a programming error.
func Register(w Workload) {
	workloadMu.Lock()
	defer workloadMu.Unlock()
	if _, dup := workloads[w.Name]; dup {
		panic("job: duplicate workload " + w.Name)
	}
	workloads[w.Name] = w
	workloadIDs = append(workloadIDs, w.Name)
	sort.Strings(workloadIDs)
}

// LookupWorkload finds a registered workload.
func LookupWorkload(name string) (Workload, bool) {
	workloadMu.RLock()
	defer workloadMu.RUnlock()
	w, ok := workloads[name]
	return w, ok
}

// WorkloadNames lists the registered workloads, sorted.
func WorkloadNames() []string {
	workloadMu.RLock()
	defer workloadMu.RUnlock()
	return append([]string(nil), workloadIDs...)
}
