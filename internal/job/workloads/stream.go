package workloads

import (
	"encoding/json"
	"fmt"
	"strings"

	"cyclops/internal/job"
	"cyclops/internal/kernel"
	"cyclops/internal/prof"
	"cyclops/internal/stream"
)

// StreamName is the STREAM workload's spec spelling.
const StreamName = "stream"

// StreamArgs is the canonical argument schema of the "stream" workload.
// Defaultable fields are explicit in the canonical form (partition,
// unroll, reps, placement), so a spec that spells a default and one that
// omits it key identically.
type StreamArgs struct {
	// Kernel is copy, scale, add or triad.
	Kernel string `json:"kernel"`
	// Threads and N mirror stream.Params.
	Threads int `json:"threads"`
	N       int `json:"n"`
	// Partition is blocked or cyclic.
	Partition string `json:"partition"`
	Local     bool   `json:"local,omitempty"`
	// Unroll is the hand-unrolling depth (1 or 4).
	Unroll      int  `json:"unroll"`
	Independent bool `json:"independent,omitempty"`
	// Reps is the best-of-N repetition count.
	Reps int `json:"reps"`
	// Placement is the kernel thread-placement policy: sequential or
	// balanced.
	Placement string `json:"placement"`
	// ProfileEvery, when nonzero, samples the guest profiler every N
	// cycles per thread unit; the symbolized report rides in the result
	// (see ProfileReport).
	ProfileEvery uint64 `json:"profile_every,omitempty"`
}

// StreamExtra is the STREAM-specific payload carried in Result.Extra.
type StreamExtra struct {
	BestCycles uint64   `json:"best_cycles"`
	RepCycles  []uint64 `json:"rep_cycles"`
	TotalBytes int      `json:"total_bytes"`
	// Profile is the hot-spot report of a profile_every run.
	Profile *prof.Report `json:"profile,omitempty"`
}

func init() { job.Define(StreamName, checkStream, runStream) }

// streamArgs is the args spelling of p and place.
func streamArgs(p stream.Params, place kernel.Policy) StreamArgs {
	return StreamArgs{
		Kernel:       strings.ToLower(p.Kernel.String()),
		Threads:      p.Threads,
		N:            p.N,
		Partition:    p.Partition.String(),
		Local:        p.Local,
		Unroll:       p.Unroll,
		Independent:  p.Independent,
		Reps:         p.Reps,
		Placement:    place.String(),
		ProfileEvery: p.ProfileEvery,
	}
}

// params reads a's run parameters: streamArgs's inverse.
func (a *StreamArgs) params() (stream.Params, kernel.Policy, error) {
	k, err := stream.ParseKernel(a.Kernel)
	if err != nil {
		return stream.Params{}, 0, err
	}
	part, err := stream.ParsePartition(a.Partition)
	if err != nil {
		return stream.Params{}, 0, err
	}
	place, err := kernel.ParsePolicy(a.Placement)
	if err != nil {
		return stream.Params{}, 0, err
	}
	p := stream.Params{
		Kernel:       k,
		Threads:      a.Threads,
		N:            a.N,
		Partition:    part,
		Local:        a.Local,
		Unroll:       a.Unroll,
		Independent:  a.Independent,
		Reps:         a.Reps,
		ProfileEvery: a.ProfileEvery,
	}
	return p, place, nil
}

// checkStream validates a as stream.Params and spells it again from them,
// with their defaults made explicit (MaxCycles's is the spec's and not in
// the args).
func checkStream(a *StreamArgs) error {
	p, place, err := a.params()
	if err != nil {
		return err
	}
	p.SetDefaults()
	if err := p.Validate(); err != nil {
		return err
	}
	*a = streamArgs(p, place)
	return nil
}

func runStream(ctx *job.RunContext, a *StreamArgs) (*job.Result, error) {
	p, place, err := a.params()
	if err != nil {
		return nil, err
	}
	p.Issue = ctx.Policy
	p.MaxCycles = ctx.Spec.MaxCycles
	r, err := stream.RunKernel(ctx.Kernel(), p, place)
	if err != nil {
		return nil, err
	}
	x := StreamExtra{
		BestCycles: r.BestCycles,
		RepCycles:  r.RepCycles,
		TotalBytes: r.TotalBytes,
	}
	if r.Profile != nil {
		x.Profile = r.Profile.Report(r.Prog)
	}
	extra, err := json.Marshal(x)
	if err != nil {
		return nil, err
	}
	return &job.Result{
		Cycles: r.BestCycles,
		Insts:  r.Insts,
		Totals: r.Totals,
		Extra:  extra,
	}, nil
}

// StreamSpec builds the job spec for one STREAM measurement. The
// parameters' per-run Issue override folds into the spec's policy (nil
// leaves it blank for the Runner's defaults), and their MaxCycles becomes
// the spec's. A timeline is a live object no result carries, so
// TimelineEvery runs must keep calling stream.Run directly. A spec names
// no engine — both give the same result — so an Engine override is
// refused too: the oracle is Runner.Engine, or stream.Run.
func StreamSpec(p stream.Params, place kernel.Policy) (*job.Spec, error) {
	if p.TimelineEvery != 0 {
		return nil, fmt.Errorf("workloads: STREAM runs with a timeline have no spec; call stream.Run directly")
	}
	if p.Engine != nil {
		return nil, fmt.Errorf("workloads: a spec names no engine; set job.Runner.Engine or call stream.Run directly")
	}
	spec, err := argsSpec(StreamName, streamArgs(p, place))
	if err != nil {
		return nil, err
	}
	spec.MaxCycles = p.MaxCycles
	if p.Issue != nil {
		spec.Policy = p.Issue.String()
	}
	return spec, nil
}

// StreamResult rebuilds the STREAM result view — including the
// bandwidth methods, which need the run parameters — from a generic job
// result produced by the "stream" workload.
func StreamResult(p stream.Params, r *job.Result) (*stream.Result, error) {
	var extra StreamExtra
	if len(r.Extra) == 0 {
		return nil, fmt.Errorf("workloads: result has no STREAM payload")
	}
	if err := json.Unmarshal(r.Extra, &extra); err != nil {
		return nil, err
	}
	return &stream.Result{
		Params:     p,
		BestCycles: extra.BestCycles,
		RepCycles:  extra.RepCycles,
		TotalBytes: extra.TotalBytes,
		Insts:      r.Insts,
		Totals:     r.Totals,
	}, nil
}
