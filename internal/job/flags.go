package job

import (
	"flag"

	"cyclops/internal/arch"
	"cyclops/internal/sim"
	"cyclops/internal/timing"
)

// Flags is the one shared definition of the engine/policy/latency
// selection flags. cyclops-sim, cyclops-bench and cyclops-serve all
// register it, so the flag names, defaults, usage strings and error
// messages have a single source of truth.
type Flags struct {
	engine        *string
	policy        *string
	switchPenalty *uint64
	lat           *string
}

// AddFlags registers -engine, -policy, -switch-penalty and -lat on fs.
func AddFlags(fs *flag.FlagSet) *Flags {
	return &Flags{
		engine: fs.String("engine", sim.EngineBlock.String(),
			"execution engine: block or legacy"),
		policy: fs.String("policy", "fine",
			"issue policy: fine, blocked or switchmiss"),
		switchPenalty: fs.Uint64("switch-penalty", timing.DefaultSwitchPenalty,
			"context-switch penalty in cycles (blocked/switchmiss policies)"),
		lat: fs.String("lat", "table2",
			"latency model: comma-separated key=value overrides on Table 2 (fpu,fma,load,miss,rhit,rmiss,burst,lag)"),
	}
}

// Engine resolves the -engine flag.
func (f *Flags) Engine() (sim.Engine, error) { return sim.ParseEngine(*f.engine) }

// Policy resolves the -policy/-switch-penalty pair.
func (f *Flags) Policy() (timing.Policy, error) {
	return timing.ParsePolicy(*f.policy, *f.switchPenalty)
}

// Latency resolves the -lat flag.
func (f *Flags) Latency() (timing.LatencyModel, error) {
	return timing.ParseLatencies(*f.lat)
}

// Resolve parses all three selections, returning the first error.
func (f *Flags) Resolve() (sim.Engine, timing.Policy, timing.LatencyModel, error) {
	eng, err := f.Engine()
	if err != nil {
		return eng, nil, timing.LatencyModel{}, err
	}
	pol, err := f.Policy()
	if err != nil {
		return eng, nil, timing.LatencyModel{}, err
	}
	lat, err := f.Latency()
	if err != nil {
		return eng, pol, lat, err
	}
	return eng, pol, lat, nil
}

// Usage is the shared usage fragment naming the selection flags, for the
// CLIs' usage lines.
const Usage = "[-engine E] [-policy P] [-switch-penalty N] [-lat SPEC]"

// Defaults resolves the selections into the value a Runner's blank spec
// fields inherit: the engine, the policy, and the paper's configuration
// with the -lat model applied. This is the cyclops-bench and
// cyclops-serve pattern — chips are built deep inside experiment points
// and request handlers, all of them from specs, so the CLI-wide
// selection is one field on the Runner those specs resolve through.
func (f *Flags) Defaults() (Defaults, error) {
	eng, pol, lat, err := f.Resolve()
	if err != nil {
		return Defaults{}, err
	}
	return Defaults{Engine: eng, Policy: pol, Config: lat.Apply(arch.Default())}, nil
}
