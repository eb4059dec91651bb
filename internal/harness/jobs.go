package harness

import (
	"cyclops/internal/job"
	"cyclops/internal/job/workloads"
	"cyclops/internal/resultcache"
	"cyclops/internal/splash"
	"cyclops/internal/stream"
)

// Runner executes every simulation of every experiment: a point is a
// job spec, and no experiment builds a chip or calls a workload package
// itself. The figure sweeps keep their own sweep.Map fan-out and call
// Runner.Run per point (Run is pool-free, so the nesting is safe);
// attaching a cache via UseCache makes repeated sweeps — re-runs, CI
// lanes — reuse earlier results instead of re-simulating. Tables are
// byte-identical either way: the Runner returns results decoded from the
// same canonical encoding on every path.
//
// Runner.Defaults is the one place a harness-wide issue policy or latency
// selection lives (cyclops-bench sets it from its flags): specs leave
// those fields blank to inherit it, and experiments that override the
// configuration start from Runner.Defaults.Config. Runner.Engine stays
// the block engine outside tests; the legacy-engine equivalence test
// sets it on this uncached Runner.
var Runner = job.NewRunner()

// UseCache attaches a result cache to the experiment runner.
func UseCache(c *resultcache.Cache) { Runner.Cache = c }

// runStreamJob executes one STREAM point through the job layer and
// rebuilds the stream result view.
func runStreamJob(spec *job.Spec, p stream.Params) (*stream.Result, error) {
	res, err := Runner.Run(spec)
	if err != nil {
		return nil, err
	}
	return workloads.StreamResult(p, res)
}

// runSplashJob executes one direct-execution point through the job
// layer and rebuilds the splash result view.
func runSplashJob(spec *job.Spec) (*splash.Result, error) {
	res, err := Runner.Run(spec)
	if err != nil {
		return nil, err
	}
	return workloads.SplashResult(res), nil
}
