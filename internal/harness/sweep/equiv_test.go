package sweep_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cyclops/internal/harness"
	"cyclops/internal/harness/sweep"
	"cyclops/internal/obs"
)

// TestSweepWorkerEquivalence checks that the rendered tables do not
// depend on the pool size: with one worker — every Map a plain loop in
// the calling goroutine — each experiment must print the bytes pinned
// under internal/harness/testdata, which harness.TestGolden holds the
// multi-worker render to.
func TestSweepWorkerEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("renders every experiment serially")
	}
	defer sweep.SetWorkers(sweep.Workers())
	sweep.SetWorkers(1)
	for _, e := range harness.Experiments() {
		if !obs.Enabled && (e.ID == "breakdown" || e.ID == "matrix" || e.ID == "profile") {
			continue // tables of counters: the goldens are the default build's
		}
		want, err := os.ReadFile(filepath.Join("..", "testdata", e.ID+"_small.golden"))
		if err != nil {
			t.Fatal(err)
		}
		tab, err := e.Run(harness.Small)
		if err != nil {
			t.Fatalf("%s (1 worker): %v", e.ID, err)
		}
		var sb strings.Builder
		tab.Fprint(&sb)
		if got := sb.String(); got != string(want) {
			t.Errorf("%s: output depends on sweep worker count\n--- golden ---\n%s--- 1 worker ---\n%s",
				e.ID, want, got)
		}
	}
}
