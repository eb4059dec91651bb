package job

import (
	"bytes"
	"encoding/json"
	"fmt"

	"cyclops/internal/core"
	"cyclops/internal/image"
	"cyclops/internal/kernel"
)

func init() {
	Register(Workload{
		Name:  ProgramWorkload,
		Canon: func(args json.RawMessage) (json.RawMessage, error) { return nil, nil }, // program specs carry no args
		Run:   runProgram,
	})
}

// runProgram boots a CYC1 image under the resident kernel — the
// cyclops-sim execution path without the interactive outputs — and
// collects the console output, the cycle accounting, and the stats
// snapshot when requested.
func runProgram(ctx *RunContext) (*Result, error) {
	prog, err := image.Decode(ctx.Spec.Program)
	if err != nil {
		return nil, err
	}
	chip, err := core.NewChip(ctx.Config)
	if err != nil {
		return nil, err
	}
	k := kernel.New(chip)
	if ctx.Spec.Balanced {
		k.Policy = kernel.Balanced
	}
	k.Machine().SetEngine(ctx.Engine)
	k.Machine().SetPolicy(ctx.Policy)
	k.Machine().MaxCycles = ctx.Spec.MaxCycles
	if err := k.Boot(prog); err != nil {
		return nil, err
	}
	if err := k.Run(); err != nil {
		// A guest trap is deterministic too, but a failed run has no
		// stats contract; report it as an error and cache nothing.
		return nil, fmt.Errorf("job: program run: %w", err)
	}
	t := k.Machine().Totals()
	res := &Result{
		Cycles: k.Machine().Cycle(),
		Insts:  k.Machine().TotalInsts(),
		Output: k.Output,
		Run:    t.Run, Stall: t.Stall, Stalls: t.Stalls, MemWaits: t.MemWaits,
	}
	if ctx.Spec.wantOutput(SnapshotOutput) {
		var buf bytes.Buffer
		if err := k.Machine().Snapshot().WriteJSON(&buf); err != nil {
			return nil, err
		}
		res.Snapshot = buf.Bytes()
	}
	return res, nil
}
