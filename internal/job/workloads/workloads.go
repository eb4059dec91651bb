// Package workloads defines the named simulation workloads of the job
// layer: the STREAM generator ("stream"), the SPLASH-2 kernels
// ("splash"), the Section 5 applications ("md", "ray") and the barrier
// microbenchmark ("microbarrier"). Each is one job.Define: an argument
// struct (StreamArgs, SplashArgs, ...), whose JSON form is the spec's
// args, a check that refuses what the workload cannot run and makes every
// defaultable field explicit, and a run over the checked struct. The job
// layer does the rest (strict decoding, the canonical encoding, decoding
// for the run), so equivalent argument spellings canonicalize to one
// encoding and therefore one cache key. An enum argument is a string in
// its type's own spelling (splash.BarrierKind, stream.Partition,
// kernel.Policy; stream.Kernel's in lower case), read by that type's
// parse function.
//
// The package also exports the spec builders and result decoders the
// harness figure sweeps and the CI lanes use to go through
// job.Runner instead of calling the workload packages directly.
package workloads

import (
	"encoding/json"
	"fmt"

	"cyclops/internal/job"
	"cyclops/internal/prof"
	"cyclops/internal/splash"
)

// argsSpec builds the job spec that runs workload on args a: the body of
// SplashSpec, MDSpec, RaySpec and MicroBarrierSpec, whose specs are their
// arguments alone, and of StreamSpec.
func argsSpec(workload string, a any) (*job.Spec, error) {
	args, err := json.Marshal(a)
	if err != nil {
		return nil, err
	}
	return &job.Spec{Workload: workload, Args: args}, nil
}

// splashResult maps the common direct-execution accounting into the
// generic result form.
func splashResult(r *splash.Result) *job.Result {
	return &job.Result{Cycles: r.Cycles, Totals: r.Totals}
}

// SplashResult rebuilds the direct-execution result view from a generic
// job result — the inverse of the mapping the workloads apply, for
// harness code that renders splash.Result fields (Speedup and the
// run/stall breakdowns).
func SplashResult(r *job.Result) *splash.Result {
	return &splash.Result{Cycles: r.Cycles, Totals: r.Totals}
}

// profileExtra is the Result.Extra of a profiled direct-execution run;
// StreamExtra carries its report under the same key.
type profileExtra struct {
	Profile *prof.Report `json:"profile,omitempty"`
}

// ProfileReport extracts the guest-profiler report from the result of a
// "stream" or "splash" run whose args set profile_every.
func ProfileReport(r *job.Result) (*prof.Report, error) {
	var x profileExtra
	if len(r.Extra) > 0 {
		if err := json.Unmarshal(r.Extra, &x); err != nil {
			return nil, err
		}
	}
	if x.Profile == nil {
		return nil, fmt.Errorf("workloads: result carries no profile (profile_every unset)")
	}
	return x.Profile, nil
}
