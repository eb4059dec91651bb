package job

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"sync"

	"cyclops/internal/core"
	"cyclops/internal/kernel"
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
	// Totals is the cycle accounting summed over thread units; embedded,
	// its fields encode inline at this position.
	timing.Totals
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
// canonical spec, the chip to run on and the parsed policy. These are a
// run's whole input: there is no process state for a workload to consult
// (sweep workers and serve handlers run different points concurrently).
// Chip is at power-on for the spec's configuration (Chip.Cfg); the run
// owns it until it returns, and the Runner may reset it and hand it to a
// later run, of that configuration or another of its shape
// (core.SameShape), so a workload keeps no reference to it, nor to the
// Kernel over it. Every workload hands Spec.MaxCycles to the machine it
// runs on. Engine is the Runner's instruction engine (Runner.Engine), which
// Kernel selects on the machine it hands out; it never changes a result.
type RunContext struct {
	Spec   *Spec
	Chip   *core.Chip
	Engine sim.Engine
	Policy timing.Policy

	// pooled is the Runner's entry for Chip, which keeps the kernel an
	// earlier run on the chip built; nil outside a Runner.
	pooled *pooledChip
}

// Kernel returns the resident kernel over Chip, at kernel.New's defaults
// with its machine on the Runner's Engine: the one an earlier run on the
// chip built, reset with it, or a new one, which later runs on the chip
// get in turn. A workload that boots guest code takes its kernel and
// machine here, once, before Boot, instead of building them.
func (ctx *RunContext) Kernel() *kernel.Kernel {
	if ctx.pooled == nil {
		ctx.pooled = &pooledChip{chip: ctx.Chip}
	}
	if ctx.pooled.kern == nil {
		ctx.pooled.kern = kernel.New(ctx.Chip)
	}
	ctx.pooled.kern.Machine().SetEngine(ctx.Engine)
	return ctx.pooled.kern
}

// workload is one registered run kind: canon re-encodes a spec's args in
// their canonical spelling, run executes a canonical spec.
type workload struct {
	canon func(args json.RawMessage) (json.RawMessage, error)
	run   func(ctx *RunContext) (*Result, error)
}

var (
	workloadMu  sync.RWMutex
	workloads   = map[string]workload{}
	workloadIDs []string
)

// Define registers the workload name, whose args are an A. It is the one
// definition of what a spec's args mean: Canonicalize decodes them into
// an A strictly (unknown fields and trailing data refused), hands it to
// check, which refuses what the workload cannot run and makes every
// defaultable field explicit, and encodes the checked A with json.Marshal
// as the canonical args; so equivalent spellings key identically. A nil
// check accepts any A as it decodes. A run decodes the canonical args
// into an A for run (a program spec carries none, so its A stays zero).
// Duplicate names panic: registration happens in package init, where a
// collision is a programming error.
func Define[A any](name string, check func(*A) error, run func(*RunContext, *A) (*Result, error)) {
	w := workload{
		canon: func(args json.RawMessage) (json.RawMessage, error) {
			var a A
			if err := strict(args, &a); err != nil {
				return nil, err
			}
			if check != nil {
				if err := check(&a); err != nil {
					return nil, err
				}
			}
			return json.Marshal(&a)
		},
		run: func(ctx *RunContext) (*Result, error) {
			var a A
			if len(ctx.Spec.Args) > 0 {
				if err := json.Unmarshal(ctx.Spec.Args, &a); err != nil {
					return nil, err
				}
			}
			return run(ctx, &a)
		},
	}
	workloadMu.Lock()
	defer workloadMu.Unlock()
	if _, dup := workloads[name]; dup {
		panic("job: duplicate workload " + name)
	}
	workloads[name] = w
	workloadIDs = append(workloadIDs, name)
	sort.Strings(workloadIDs)
}

// strict decodes args into v, rejecting unknown fields and trailing data:
// the canonical-spelling guarantee starts here.
func strict(args json.RawMessage, v any) error {
	if len(args) == 0 {
		return fmt.Errorf("missing args")
	}
	dec := json.NewDecoder(bytes.NewReader(args))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return fmt.Errorf("trailing data after args")
	}
	return nil
}

// lookupWorkload finds a registered workload.
func lookupWorkload(name string) (workload, bool) {
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
