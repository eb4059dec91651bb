package job

import (
	"bytes"
	"fmt"

	"cyclops/internal/image"
	"cyclops/internal/kernel"
)

// A program spec carries no args (Canonicalize refuses them): its A is
// empty and it needs no check.
func init() { Define(ProgramWorkload, nil, runProgram) }

// runProgram boots a CYC1 image under the resident kernel — the
// cyclops-sim execution path without the interactive outputs — and
// collects the console output, the cycle accounting, and the stats
// snapshot when requested.
func runProgram(ctx *RunContext, _ *struct{}) (*Result, error) {
	prog, err := image.Decode(ctx.Spec.Program)
	if err != nil {
		return nil, err
	}
	k := ctx.Kernel()
	if ctx.Spec.Balanced {
		k.Policy = kernel.Balanced
	}
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
		Totals: t,
		Output: k.Output,
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
