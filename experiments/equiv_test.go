package experiments_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cyclops/experiments"
	"cyclops/internal/harness"
	"cyclops/internal/harness/sweep"
	"cyclops/internal/obs"
	"cyclops/internal/sim"
)

// TestEngineEquivalence checks that the seed interpreter prints, for
// every experiment, the bytes pinned under internal/harness/testdata —
// the same files harness.TestGolden holds the block-compiling engine to.
// This is the contract that lets the fast tier replace the original: same
// cycle counts, same stats, same rendered output. The engine is selected
// the way cyclops-bench -engine does, as the harness runner's default.
func TestEngineEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("renders every experiment on the legacy engine")
	}
	prev := harness.Runner.Defaults
	defer func() { harness.Runner.Defaults = prev }()
	harness.Runner.Defaults.Engine = sim.EngineLegacy
	defer sweep.SetWorkers(sweep.Workers())
	sweep.SetWorkers(8)
	for _, info := range experiments.List() {
		if !obs.Enabled && (info.ID == "breakdown" || info.ID == "matrix" || info.ID == "profile") {
			continue // tables of counters: the goldens are the default build's
		}
		want, err := os.ReadFile(filepath.Join("..", "internal", "harness", "testdata", info.ID+"_small.golden"))
		if err != nil {
			t.Fatal(err)
		}
		tab, err := experiments.Run(info.ID, experiments.Small)
		if err != nil {
			t.Fatalf("%s (legacy engine): %v", info.ID, err)
		}
		var sb strings.Builder
		tab.Fprint(&sb)
		if got := sb.String(); got != string(want) {
			t.Errorf("%s: seed engine output differs from the golden\n--- golden ---\n%s--- legacy engine ---\n%s",
				info.ID, want, got)
		}
	}
}
