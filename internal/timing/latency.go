package timing

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"cyclops/internal/arch"
)

// LatencyModel is the sweepable subset of the Table 2 timing constants:
// the FPU result latencies, the four load-use latencies of the data-side
// memory hierarchy, and the memory port/bank timings. The simulated
// machine consumes it through arch.Config — Apply produces the swept
// configuration and the engines charge through it unchanged — so a
// latency point needs no engine-side special cases and stays exact on
// every engine by construction.
type LatencyModel struct {
	// FPU is the FP add/multiply result latency (Table 2: 5).
	FPU int
	// FMA is the fused multiply-add result latency (9).
	FMA int
	// Load is the load-use latency of a local cache hit (6).
	Load int
	// LocalMiss, RemoteHit and RemoteMiss are the remaining load-use
	// latencies of Table 2 (24, 17, 36).
	LocalMiss, RemoteHit, RemoteMiss int
	// Burst is the DRAM bank occupancy of one 64-byte burst (12 cycles,
	// setting the 42 GB/s peak).
	Burst int
	// StoreLag bounds each bank's write-combining backlog before stores
	// backpressure (192 cycles).
	StoreLag int
}

// LatenciesOf extracts the sweepable subset from a configuration.
func LatenciesOf(c arch.Config) LatencyModel {
	l := c.Latencies
	return LatencyModel{
		FPU:        l.FPLatency,
		FMA:        l.FMALatency,
		Load:       l.LocalHitLatency,
		LocalMiss:  l.LocalMissLatency,
		RemoteHit:  l.RemoteHitLatency,
		RemoteMiss: l.RemoteMissLatency,
		Burst:      c.MemBurstCycles,
		StoreLag:   c.StoreLagCycles,
	}
}

// DefaultLatencies returns the paper's Table 2 point.
func DefaultLatencies() LatencyModel { return LatenciesOf(arch.Default()) }

// Apply returns c with the model's latencies substituted in.
func (m LatencyModel) Apply(c arch.Config) arch.Config {
	c.Latencies.FPLatency = m.FPU
	c.Latencies.FMALatency = m.FMA
	c.Latencies.LocalHitLatency = m.Load
	c.Latencies.LocalMissLatency = m.LocalMiss
	c.Latencies.RemoteHitLatency = m.RemoteHit
	c.Latencies.RemoteMissLatency = m.RemoteMiss
	c.MemBurstCycles = m.Burst
	c.StoreLagCycles = m.StoreLag
	return c
}

// Validate reports the first inconsistency in the model.
func (m LatencyModel) Validate() error {
	switch {
	case m.FPU < 0 || m.FMA < 0:
		return fmt.Errorf("timing: FP latencies must be non-negative (fpu=%d, fma=%d)", m.FPU, m.FMA)
	case m.Load < 1:
		return fmt.Errorf("timing: load-use latency must be at least 1, got %d", m.Load)
	case m.LocalMiss < m.Load:
		return fmt.Errorf("timing: local miss latency %d below the %d-cycle hit", m.LocalMiss, m.Load)
	case m.RemoteHit < m.Load:
		return fmt.Errorf("timing: remote hit latency %d below the %d-cycle local hit", m.RemoteHit, m.Load)
	case m.RemoteMiss < m.LocalMiss:
		return fmt.Errorf("timing: remote miss latency %d below the %d-cycle local miss", m.RemoteMiss, m.LocalMiss)
	case m.Burst < 1:
		return fmt.Errorf("timing: burst occupancy must be at least 1, got %d", m.Burst)
	case m.StoreLag < m.Burst:
		return fmt.Errorf("timing: store lag %d below one %d-cycle burst", m.StoreLag, m.Burst)
	}
	return nil
}

// latencyFields maps spec keys to model fields, in canonical spec order.
var latencyFields = []struct {
	key string
	get func(*LatencyModel) *int
}{
	{"fpu", func(m *LatencyModel) *int { return &m.FPU }},
	{"fma", func(m *LatencyModel) *int { return &m.FMA }},
	{"load", func(m *LatencyModel) *int { return &m.Load }},
	{"miss", func(m *LatencyModel) *int { return &m.LocalMiss }},
	{"rhit", func(m *LatencyModel) *int { return &m.RemoteHit }},
	{"rmiss", func(m *LatencyModel) *int { return &m.RemoteMiss }},
	{"burst", func(m *LatencyModel) *int { return &m.Burst }},
	{"lag", func(m *LatencyModel) *int { return &m.StoreLag }},
}

// String renders the model as its canonical spec, listing only the
// fields that differ from Table 2 — the default point reads "table2".
// The output round-trips through ParseLatencies.
func (m LatencyModel) String() string { return m.Diff(DefaultLatencies()) }

// Diff is String against an arbitrary base point: the fields where m
// differs from base, "table2" when none does. Sweeps that start from a
// swept default (-lat) label their points with it.
func (m LatencyModel) Diff(base LatencyModel) string {
	var parts []string
	for _, f := range latencyFields {
		if v := *f.get(&m); v != *f.get(&base) {
			parts = append(parts, f.key+"="+strconv.Itoa(v))
		}
	}
	if len(parts) == 0 {
		return "table2"
	}
	return strings.Join(parts, ",")
}

// ParseLatencies builds a model from a comma-separated spec of key=value
// overrides on the Table 2 defaults: "fpu=10,load=12,burst=24". The empty
// spec and "table2" are the default point. Keys are the canonical String
// spellings; unknown keys and non-positive syntax are errors, and the
// resulting model must validate.
func ParseLatencies(spec string) (LatencyModel, error) { return DefaultLatencies().With(spec) }

// With is ParseLatencies over m instead of Table 2: m with the spec's
// overrides applied.
func (m LatencyModel) With(spec string) (LatencyModel, error) {
	if spec == "" || spec == "table2" {
		return m, nil
	}
	for _, part := range strings.Split(spec, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return m, fmt.Errorf("timing: latency spec %q: want key=value", part)
		}
		n, err := strconv.Atoi(v)
		if err != nil {
			return m, fmt.Errorf("timing: latency spec %q: %v", part, err)
		}
		found := false
		for _, f := range latencyFields {
			if f.key == k {
				*f.get(&m) = n
				found = true
				break
			}
		}
		if !found {
			return m, fmt.Errorf("timing: latency spec %q: unknown key %q (want %s)",
				part, k, strings.Join(latencyKeys(), ", "))
		}
	}
	return m, m.Validate()
}

// latencyKeys lists the spec keys, sorted for stable error messages.
func latencyKeys() []string {
	keys := make([]string, len(latencyFields))
	for i, f := range latencyFields {
		keys[i] = f.key
	}
	sort.Strings(keys)
	return keys
}
