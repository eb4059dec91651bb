package experiments_test

import (
	"strings"
	"testing"

	"cyclops/experiments"
	"cyclops/internal/harness/sweep"
	"cyclops/internal/sim"
)

// render runs every experiment at Small scale and returns the rendered
// tables keyed by ID.
func render(t *testing.T) map[string]string {
	t.Helper()
	out := make(map[string]string)
	for _, info := range experiments.List() {
		tab, err := experiments.Run(info.ID, experiments.Small)
		if err != nil {
			t.Fatalf("%s: %v", info.ID, err)
		}
		var sb strings.Builder
		tab.Fprint(&sb)
		out[info.ID] = sb.String()
	}
	return out
}

// TestEngineEquivalence checks that both execution engines — the seed
// interpreter and the block-compiling engine — produce byte-identical
// tables for every experiment. This is the contract that lets the fast
// tier replace the original: same cycle counts, same stats, same
// rendered output.
func TestEngineEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment once per engine")
	}
	prev := sim.SetDefaultEngine(sim.EngineLegacy)
	defer sim.SetDefaultEngine(prev)
	legacy := render(t)
	sim.SetDefaultEngine(sim.EngineBlock)
	block := render(t)
	for id, want := range legacy {
		if got := block[id]; got != want {
			t.Errorf("%s: block engine output differs from seed engine\n--- seed ---\n%s--- block ---\n%s", id, want, got)
		}
	}
}

// TestSweepWorkerEquivalence checks that the rendered tables do not
// depend on the sweep pool size: a 1-worker (fully serial) run and a
// multi-worker run must be byte-identical.
func TestSweepWorkerEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment twice")
	}
	defer sweep.SetWorkers(sweep.Workers())
	sweep.SetWorkers(1)
	serial := render(t)
	sweep.SetWorkers(8)
	parallel := render(t)
	for id, want := range serial {
		if got := parallel[id]; got != want {
			t.Errorf("%s: output depends on sweep worker count\n--- serial ---\n%s--- 8 workers ---\n%s", id, want, got)
		}
	}
}
