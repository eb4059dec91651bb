package job

import (
	"flag"
	"fmt"

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
		engine: fs.String("engine", sim.DefaultEngine().String(),
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

// InstallDefaults makes the resolved selections the process-wide
// defaults: the engine and policy for subsequently built machines, and —
// when the latency model differs from Table 2 — the architectural
// configuration returned by arch.Default. This is the cyclops-bench and
// cyclops-serve pattern: machines are built deep inside experiment
// points and request handlers, so CLI-wide selection installs defaults
// rather than threading parameters through every layer.
func (f *Flags) InstallDefaults() error {
	eng, pol, lat, err := f.Resolve()
	if err != nil {
		return err
	}
	return InstallDefaults(eng, pol, lat)
}

// InstallDefaults installs explicit selections process-wide (see
// Flags.InstallDefaults).
func InstallDefaults(eng sim.Engine, pol timing.Policy, lat timing.LatencyModel) error {
	sim.SetDefaultEngine(eng)
	timing.SetDefaultPolicy(pol)
	if lat != timing.DefaultLatencies() {
		cfg := lat.Apply(arch.Default())
		if _, err := arch.SetDefault(&cfg); err != nil {
			return fmt.Errorf("job: installing latency model: %w", err)
		}
	}
	return nil
}
