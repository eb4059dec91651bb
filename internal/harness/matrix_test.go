package harness

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cyclops/internal/obs"
	"cyclops/internal/timing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// renderSmall runs experiment id at Small scale and returns the table
// with its printed form.
func renderSmall(t *testing.T, id string) (*Table, string) {
	t.Helper()
	e, ok := Lookup(id)
	if !ok {
		t.Fatalf("no experiment %q", id)
	}
	tab, err := e.Run(Small)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	tab.Fprint(&sb)
	return tab, sb.String()
}

// checkGolden renders experiment id at Small scale and compares it byte
// for byte with testdata/<id>_small.golden, rewriting the file first
// under -update. It returns the rendered table for shape assertions.
func checkGolden(t *testing.T, id string) *Table {
	t.Helper()
	tab, got := renderSmall(t, id)
	path := filepath.Join("testdata", id+"_small.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test -run Golden -update ./internal/harness` to create it)", err)
	}
	if got != string(want) {
		t.Errorf("%s table drifted from golden\n--- golden ---\n%s--- got ---\n%s", id, want, got)
	}
	return tab
}

// TestMatrixGolden pins the Small-scale scenario matrix byte-exact: the
// cycle counts and stall attributions of every (policy, latency,
// workload) point are part of the repo's contract, regenerated only by
// an intentional `go test -run MatrixGolden -update ./internal/harness`.
func TestMatrixGolden(t *testing.T) {
	if !obs.Enabled {
		t.Skip("counters compiled out")
	}
	checkGolden(t, "matrix")
}

// TestMatrixShares checks the structural invariants of every matrix row:
// shares sum to 100%, fine-grained rows charge no switch overhead,
// switching policies at Table 2 charge some, and blocked charges at
// least as much as switch-on-miss on the same scenario point.
func TestMatrixShares(t *testing.T) {
	if !obs.Enabled {
		t.Skip("counters compiled out")
	}
	tab, err := Matrix(Small)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 12 {
		t.Fatalf("%d rows, want 3 policies × 2 latencies × 2 workloads", len(tab.Rows))
	}
	polCol, latCol, runCol := 2, 3, 5
	switchCol := runCol + int(obs.SwitchStall) + 1
	if got := tab.Columns[switchCol]; got != "switch %" {
		t.Fatalf("column %d = %q, want switch %%", switchCol, got)
	}
	byKey := map[string]float64{}
	for i, row := range tab.Rows {
		sum := 0.0
		for col := runCol; col <= switchCol; col++ {
			sum += cell(t, tab, i, col)
		}
		if sum < 99.5 || sum > 100.5 {
			t.Errorf("row %d shares sum to %.1f%%, want 100%%", i, sum)
		}
		sw := cell(t, tab, i, switchCol)
		if row[polCol] == (timing.FineGrain{}).String() && sw != 0 {
			t.Errorf("row %d: fine-grained charges %.1f%% switch overhead", i, sw)
		}
		byKey[row[polCol]+"|"+row[latCol]+"|"+row[0]] = sw
	}
	for _, lat := range matrixLatencies(Small) {
		for _, wl := range []string{"STREAM Triad", "FFT HW barrier"} {
			blocked := byKey["blocked/8|"+lat.String()+"|"+wl]
			miss := byKey["switchmiss/8|"+lat.String()+"|"+wl]
			if blocked <= 0 || miss <= 0 {
				t.Errorf("%s @ %s: switching policies charge no switch overhead (blocked %.1f%%, switchmiss %.1f%%)",
					wl, lat, blocked, miss)
			}
			if blocked < miss {
				t.Errorf("%s @ %s: blocked switch share %.1f%% below switch-on-miss %.1f%%",
					wl, lat, blocked, miss)
			}
		}
	}
}
