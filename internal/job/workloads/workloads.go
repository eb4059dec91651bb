// Package workloads registers the named simulation workloads with the
// job layer: the STREAM generator ("stream"), the SPLASH-2 kernels
// ("splash"), the Section 5 applications ("md", "ray") and the barrier
// microbenchmark ("microbarrier"). Each registration supplies a strict
// argument schema — unknown fields are rejected, defaultable fields are
// made explicit — so equivalent argument spellings canonicalize to one
// encoding and therefore one cache key.
//
// The package also exports the spec builders and result decoders the
// harness figure sweeps and the CI lanes use to go through
// job.Runner instead of calling the workload packages directly.
package workloads

import (
	"bytes"
	"encoding/json"
	"fmt"

	"cyclops/internal/job"
	"cyclops/internal/prof"
	"cyclops/internal/splash"
)

// strict decodes args through v's schema, rejecting unknown fields and
// trailing data — the canonical-spelling guarantee starts here.
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

// parseBarrier maps the canonical barrier spelling.
func parseBarrier(s string) (splash.BarrierKind, error) {
	switch s {
	case "", "hw":
		return splash.HW, nil
	case "sw":
		return splash.SW, nil
	}
	return splash.HW, fmt.Errorf("barrier %q (want hw or sw)", s)
}

// argsSpec builds the job spec that runs workload on args a: the body of
// SplashSpec, MDSpec, RaySpec and MicroBarrierSpec, whose specs are their
// arguments alone.
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
