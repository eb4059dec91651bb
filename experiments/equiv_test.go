package experiments_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cyclops/experiments"
	"cyclops/internal/harness"
	"cyclops/internal/harness/sweep"
	"cyclops/internal/sim"
)

// TestEngineEquivalence checks that the seed interpreter prints, for
// every experiment, the bytes pinned under internal/harness/testdata —
// the same files harness.TestGolden holds the block-compiling engine to.
// This is the contract that lets the fast tier replace the original: same
// cycle counts, same stats, same rendered output. The engine is the
// harness runner's test-only override, which is not part of any key: the
// runner is uncached here, so every point really runs on the oracle.
func TestEngineEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("renders every experiment on the legacy engine")
	}
	if harness.Runner.Cache != nil {
		t.Fatal("harness.Runner has a cache: its hits would not run on the legacy engine")
	}
	prev := harness.Runner.Engine
	defer func() { harness.Runner.Engine = prev }()
	harness.Runner.Engine = sim.EngineLegacy
	defer sweep.SetWorkers(sweep.Workers())
	sweep.SetWorkers(8)
	for _, info := range experiments.List() {
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
