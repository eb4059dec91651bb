package experiments_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"cyclops/experiments"
	"cyclops/internal/harness"
	"cyclops/internal/harness/sweep"
	"cyclops/internal/sim"
)

// render runs every registered experiment at Small scale on the given
// engine — selected the way cyclops-bench -engine does, as the harness
// runner's default — and sweep pool size, and returns the rendered tables
// keyed by ID. Both settings are restored on return.
func render(engine sim.Engine, workers int) (map[string]string, error) {
	prev := harness.Runner.Defaults
	defer func() { harness.Runner.Defaults = prev }()
	harness.Runner.Defaults.Engine = engine
	defer sweep.SetWorkers(sweep.Workers())
	sweep.SetWorkers(workers)
	out := make(map[string]string)
	for _, info := range experiments.List() {
		tab, err := experiments.Run(info.ID, experiments.Small)
		if err != nil {
			return nil, fmt.Errorf("%s (%s engine, %d workers): %w", info.ID, engine, workers, err)
		}
		var sb strings.Builder
		tab.Fprint(&sb)
		out[info.ID] = sb.String()
	}
	return out, nil
}

// The reference render — block engine, 8 sweep workers: the production
// path — is shared by both equivalence tests, so a full test run renders
// the registry three times (reference, legacy, serial), and either test
// still works alone under -run.
var (
	refOnce sync.Once
	refTabs map[string]string
	refErr  error
)

// checkAgainstReference renders the registry on engine with the given
// pool size and fails for every table that differs from the reference.
func checkAgainstReference(t *testing.T, engine sim.Engine, workers int, what string) {
	t.Helper()
	refOnce.Do(func() { refTabs, refErr = render(sim.EngineBlock, 8) })
	if refErr != nil {
		t.Fatal(refErr)
	}
	got, err := render(engine, workers)
	if err != nil {
		t.Fatal(err)
	}
	for _, info := range experiments.List() {
		if want := refTabs[info.ID]; got[info.ID] != want {
			t.Errorf("%s: %s\n--- block engine, 8 workers ---\n%s--- %s engine, %d workers ---\n%s",
				info.ID, what, want, engine, workers, got[info.ID])
		}
	}
}

// TestEngineEquivalence checks that both execution engines — the seed
// interpreter and the block-compiling engine — produce byte-identical
// tables for every experiment. This is the contract that lets the fast
// tier replace the original: same cycle counts, same stats, same
// rendered output.
func TestEngineEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("renders every experiment on the legacy engine")
	}
	checkAgainstReference(t, sim.EngineLegacy, 8, "seed engine output differs from block engine")
}

// TestSweepWorkerEquivalence checks that the rendered tables do not
// depend on the sweep pool size: a 1-worker (fully serial) run and a
// multi-worker run must be byte-identical.
func TestSweepWorkerEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("renders every experiment serially")
	}
	checkAgainstReference(t, sim.EngineBlock, 1, "output depends on sweep worker count")
}
