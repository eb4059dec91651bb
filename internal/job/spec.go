// Package job is the unified run/job layer: one canonical description of
// a simulation run — what to execute (a program image or a named
// workload), on which architectural configuration, under which issue
// policy and latency model — plus a deterministic content hash over that
// description, and a Runner that executes specs with an optional result
// cache in front. A spec describes the chip, never the host: which
// instruction engine simulates it is not part of a run's description,
// because both engines produce the same bytes.
//
// Every Cyclops run is deterministic: a canonicalized Spec fully
// determines the run's statistics, tables and outputs. Spec.Key exploits
// that — SHA-256 over the canonical spec encoding plus SemanticsVersion —
// so results are content-addressed: the figure sweeps, the CI lanes and
// the cyclops-serve daemon all share one cache keyed by what a run *is*
// rather than who asked for it.
package job

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"sort"

	"cyclops/internal/arch"
	"cyclops/internal/resultcache"
	"cyclops/internal/timing"
)

// SemanticsVersion stamps every spec key with the simulator's timing
// semantics. Bump it whenever an old key could name a different result:
// a change that intentionally moves simulated cycles or counters (i.e.
// whenever the harness goldens are regenerated), or a key-schema change
// that lets an old encoding hash to a key the new code runs differently.
// Old cache entries then never match new keys, so a stale cache can serve
// stale-but-correct results only for the semantics it recorded, never
// wrong results for the current ones. A change that only moves keys needs
// no bump: removing a field every old encoding of a workload carried
// leaves those old keys unreachable, so their entries are never served.
// The resultcache manifest records this value per cache directory.
const SemanticsVersion = "cyclops-sim/1"

// ProgramWorkload is the built-in workload name for raw program images.
const ProgramWorkload = "program"

// SnapshotOutput requests the deterministic obs.Snapshot JSON in the
// result (program workload only).
const SnapshotOutput = "snapshot"

// Spec describes one deterministic simulation run. The zero value is not
// runnable; fill Workload (plus Program or Args) and let Canonicalize
// default the rest. Field order is the canonical encoding order — the
// key hashes the JSON form, which encoding/json emits in declaration
// order — so reordering fields is a key-schema change (bump
// SemanticsVersion).
type Spec struct {
	// Workload names what to run: ProgramWorkload for a raw image in
	// Program, else a registered workload ("stream", "splash", ...).
	Workload string `json:"workload"`
	// Program is the CYC1 image for the program workload.
	Program []byte `json:"program,omitempty"`
	// Args parameterizes a named workload; Canonicalize re-encodes them
	// through the workload's argument schema so equivalent spellings
	// (field order, whitespace, defaulted fields) key identically.
	Args json.RawMessage `json:"args,omitempty"`
	// Config is the full architectural configuration, boot-time faults
	// included. nil inherits the resolving Runner's Defaults.Config (the
	// paper's design point under a bare Canonicalize); the canonical form
	// always carries it, so keys are computed over an explicit
	// configuration.
	Config *arch.Config `json:"config,omitempty"`
	// Policy is the issue policy's canonical spec ("fine", "blocked/8");
	// empty inherits Defaults.Policy (fine).
	Policy string `json:"policy,omitempty"`
	// Latency is an optional spec of latency overrides
	// ("miss=48,rmiss=72") on top of the configuration; Canonicalize
	// folds it into Config and clears it, so it is an input convenience,
	// never part of a canonical spec.
	Latency string `json:"latency,omitempty"`
	// Balanced selects the balanced kernel thread-placement policy
	// (program workload; named workloads carry placement in Args).
	Balanced bool `json:"balanced,omitempty"`
	// MaxCycles bounds the run on every workload: past it the run fails
	// with an error wrapping timing.ErrCycleLimit, which is never cached.
	// 0 keeps each workload's own bound: none for programs and the
	// direct-execution workloads, stream.DefaultMaxCycles for stream.
	MaxCycles uint64 `json:"max_cycles,omitempty"`
	// Outputs lists extra requested outputs (SnapshotOutput); sorted and
	// deduplicated by Canonicalize.
	Outputs []string `json:"outputs,omitempty"`

	// canonical marks a spec returned by Canonicalize; such specs pass
	// through Canonicalize unchanged.
	canonical bool
}

// Defaults is what blank Policy and Config fields of a spec resolve to.
// A Runner carries one (the CLIs' -policy/-lat selection lands there);
// nothing else in the process influences a run.
type Defaults struct {
	Policy timing.Policy // nil is fine-grained
	Config arch.Config
}

// paperDefaults is the paper's design point — fine-grained issue, the
// Table 2 configuration: what a bare Canonicalize and a fresh Runner
// assume.
func paperDefaults() Defaults {
	return Defaults{Policy: timing.FineGrain{}, Config: arch.Default()}
}

// Canonicalize validates the spec and returns its canonical form: every
// defaultable field made explicit (policy and configuration — blanks
// take the paper's design point; Runner.Resolve fills them from the
// Runner's Defaults instead), the latency convenience folded into the
// configuration, workload arguments re-encoded through the workload's
// schema, outputs sorted. Two specs describing the same run canonicalize
// to equal values, which is what makes Key a content address. The
// receiver is not modified.
func (s *Spec) Canonicalize() (*Spec, error) { return s.canonicalize(paperDefaults()) }

func (s *Spec) canonicalize(d Defaults) (*Spec, error) {
	if s.canonical {
		return s, nil
	}
	c := *s
	w, ok := lookupWorkload(c.Workload)
	if !ok {
		return nil, fmt.Errorf("job: unknown workload %q (have %v)", c.Workload, WorkloadNames())
	}
	if c.Workload == ProgramWorkload {
		if len(c.Program) == 0 {
			return nil, fmt.Errorf("job: program workload needs a program image")
		}
		if len(c.Args) > 0 {
			return nil, fmt.Errorf("job: program workload takes no args")
		}
	} else {
		if len(c.Program) > 0 {
			return nil, fmt.Errorf("job: workload %q does not take a program image", c.Workload)
		}
		if c.Balanced {
			return nil, fmt.Errorf("job: Balanced is program-only; workload %q carries placement in its args", c.Workload)
		}
		if len(c.Outputs) > 0 {
			return nil, fmt.Errorf("job: outputs are program-only; workload %q has none", c.Workload)
		}
		args, err := w.canon(c.Args)
		if err != nil {
			return nil, fmt.Errorf("job: workload %q args: %w", c.Workload, err)
		}
		c.Args = args
	}

	switch {
	case c.Policy != "":
		pol, err := timing.ParsePolicySpec(c.Policy)
		if err != nil {
			return nil, err
		}
		c.Policy = pol.String()
	case d.Policy != nil:
		c.Policy = d.Policy.String()
	default: // nil is fine-grained, as for SetPolicy
		c.Policy = timing.FineGrain{}.String()
	}

	cfg := d.Config
	if c.Config != nil {
		cfg = *c.Config
	}
	if c.Latency != "" {
		lat, err := timing.LatenciesOf(cfg).With(c.Latency)
		if err != nil {
			return nil, err
		}
		cfg = lat.Apply(cfg)
		c.Latency = ""
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c.Config = &cfg

	if len(c.Outputs) > 0 {
		outs := append([]string(nil), c.Outputs...)
		sort.Strings(outs)
		dedup := outs[:0]
		for i, o := range outs {
			if i > 0 && o == outs[i-1] {
				continue
			}
			switch o {
			case SnapshotOutput:
			default:
				return nil, fmt.Errorf("job: unknown output %q (want %q)", o, SnapshotOutput)
			}
			dedup = append(dedup, o)
		}
		c.Outputs = dedup
	}
	c.canonical = true
	return &c, nil
}

// Key returns the spec's content hash: SHA-256 over SemanticsVersion and
// the canonical encoding. Equal keys mean equal runs (and, by the
// determinism contract, equal results).
func (s *Spec) Key() (resultcache.Key, error) {
	c, err := s.Canonicalize()
	if err != nil {
		return resultcache.Key{}, err
	}
	enc, err := json.Marshal(c)
	if err != nil {
		return resultcache.Key{}, err
	}
	h := sha256.New()
	h.Write([]byte(SemanticsVersion))
	h.Write([]byte{0})
	h.Write(enc)
	var k resultcache.Key
	h.Sum(k[:0])
	return k, nil
}

// wantOutput reports whether the canonical spec requests the named
// output.
func (s *Spec) wantOutput(name string) bool {
	for _, o := range s.Outputs {
		if o == name {
			return true
		}
	}
	return false
}

// policy resolves the canonical policy spec.
func (s *Spec) policy() (timing.Policy, error) { return timing.ParsePolicySpec(s.Policy) }
