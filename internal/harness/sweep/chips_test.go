package sweep_test

import (
	"testing"

	"cyclops/internal/harness"
	"cyclops/internal/harness/sweep"
)

// paperSweep is one pass of the benchmark's paper_sweep workload: its six
// slots' experiments, in slot order.
var paperSweep = []string{
	"fig6a", "fault", "fig3", "fig7a", "fig7b", "fig4a", "apps", "fig5d",
	"table1", "table2", "fig6b", "microbarrier", "breakdown", "profile", "matrix", "mesh",
}

// TestPaperSweepBuildsNoChipAfterItsFirstPass: on one worker the harness
// Runner's idle list keeps a chip of every shape a pass of the paper's
// tables uses (the default, matrix's slow-memory point, the fault
// configurations on the default's chip), so a second pass takes every
// chip it runs on from the list and builds none.
func TestPaperSweepBuildsNoChipAfterItsFirstPass(t *testing.T) {
	if testing.Short() {
		t.Skip("renders the paper_sweep experiments twice")
	}
	defer sweep.SetWorkers(sweep.Workers())
	sweep.SetWorkers(1)
	for pass := range 2 {
		before := harness.Runner.Stats()
		for _, id := range paperSweep {
			e, ok := harness.Lookup(id)
			if !ok {
				t.Fatalf("no experiment %s", id)
			}
			if _, err := e.Run(harness.Small); err != nil {
				t.Fatalf("%s: %v", id, err)
			}
		}
		after := harness.Runner.Stats()
		built, runs := after.ChipsBuilt-before.ChipsBuilt, after.Executions-before.Executions
		t.Logf("pass %d: %d runs, %d chips built", pass+1, runs, built)
		if pass > 0 && built != 0 {
			t.Errorf("pass %d built %d chips; every shape's chip should have been kept", pass+1, built)
		}
	}
}
