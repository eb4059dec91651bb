package job

import (
	"flag"

	"cyclops/internal/arch"
	"cyclops/internal/timing"
)

// Flags is the one shared definition of the policy/latency selection
// flags. cyclops-sim, cyclops-bench and cyclops-serve all register it, so
// the flag names, defaults, usage strings and error messages have a
// single source of truth.
type Flags struct {
	policy        *string
	switchPenalty *uint64
	lat           *string
}

// AddFlags registers -policy, -switch-penalty and -lat on fs.
func AddFlags(fs *flag.FlagSet) *Flags {
	return &Flags{
		policy: fs.String("policy", "fine",
			"issue policy: fine, blocked or switchmiss"),
		switchPenalty: fs.Uint64("switch-penalty", timing.DefaultSwitchPenalty,
			"context-switch penalty in cycles (blocked/switchmiss policies)"),
		lat: fs.String("lat", "table2",
			"latency model: comma-separated key=value overrides on Table 2 (fpu,fma,load,miss,rhit,rmiss,burst,lag)"),
	}
}

// Policy resolves the -policy/-switch-penalty pair.
func (f *Flags) Policy() (timing.Policy, error) {
	return timing.ParsePolicy(*f.policy, *f.switchPenalty)
}

// Latency resolves the -lat flag.
func (f *Flags) Latency() (timing.LatencyModel, error) {
	return timing.ParseLatencies(*f.lat)
}

// Resolve parses both selections, returning the first error.
func (f *Flags) Resolve() (timing.Policy, timing.LatencyModel, error) {
	pol, err := f.Policy()
	if err != nil {
		return nil, timing.LatencyModel{}, err
	}
	lat, err := f.Latency()
	return pol, lat, err
}

// Usage is the shared usage fragment naming the selection flags, for the
// CLIs' usage lines.
const Usage = "[-policy P] [-switch-penalty N] [-lat SPEC]"

// Defaults resolves the selections into the value a Runner's blank spec
// fields inherit: the policy, and the paper's configuration with the -lat
// model applied. This is the cyclops-bench and cyclops-serve pattern —
// chips are built deep inside experiment points and request handlers,
// all of them from specs, so the CLI-wide selection is one field on the
// Runner those specs resolve through.
func (f *Flags) Defaults() (Defaults, error) {
	pol, lat, err := f.Resolve()
	if err != nil {
		return Defaults{}, err
	}
	return Defaults{Policy: pol, Config: lat.Apply(arch.Default())}, nil
}
