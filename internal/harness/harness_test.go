package harness

import (
	"strconv"
	"strings"
	"testing"

	"cyclops/internal/obs"
	"cyclops/internal/resultcache"
)

func TestParseScale(t *testing.T) {
	if s, err := ParseScale("full"); err != nil || s != Full {
		t.Error("full not parsed")
	}
	if s, err := ParseScale(""); err != nil || s != Small {
		t.Error("default not Small")
	}
	if _, err := ParseScale("bogus"); err == nil {
		t.Error("bogus scale accepted")
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{ID: "x", Title: "demo", Columns: []string{"a", "bb"}}
	tab.AddRow("1", "2")
	tab.Note("note %d", 7)
	var sb strings.Builder
	tab.Fprint(&sb)
	out := sb.String()
	for _, want := range []string{"== x: demo ==", "a", "bb", "# note 7"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendering missing %q:\n%s", want, out)
		}
	}
	if csv := tab.CSV(); csv != "a,bb\n1,2\n" {
		t.Errorf("CSV = %q", csv)
	}
	// Cells holding the separator or a quote are quoted, so every record
	// keeps the header's field count.
	tab.AddRow("miss=48,rmiss=72", `say "hi"`)
	if csv, want := tab.CSV(), "a,bb\n1,2\n\"miss=48,rmiss=72\",\"say \"\"hi\"\"\"\n"; csv != want {
		t.Errorf("CSV = %q, want %q", csv, want)
	}
}

func TestExperimentRegistry(t *testing.T) {
	exps := Experiments()
	want := []string{"table1", "table2", "fig3", "fig4a", "fig4b", "fig5a", "fig5b", "fig5c", "fig5d", "fig6a", "fig6b", "fig7a", "fig7b", "microbarrier", "breakdown", "profile", "matrix", "apps", "fault", "mesh",
		"ablate-fpu", "ablate-banks", "ablate-burst", "ablate-writebuf", "ablate-policy", "ablate-dcache"}
	if len(exps) != len(want) {
		t.Fatalf("%d experiments, want %d", len(exps), len(want))
	}
	for i, id := range want {
		if exps[i].ID != id {
			t.Errorf("experiment %d = %s, want %s", i, exps[i].ID, id)
		}
		if _, ok := Lookup(id); !ok {
			t.Errorf("Lookup(%q) failed", id)
		}
	}
	if _, ok := Lookup("nope"); ok {
		t.Error("Lookup accepted unknown id")
	}
}

func cell(t *testing.T, tab *Table, row, col int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(tab.Rows[row][col], 64)
	if err != nil {
		t.Fatalf("cell (%d,%d) = %q not numeric", row, col, tab.Rows[row][col])
	}
	return v
}

func TestTable1AndTable2(t *testing.T) {
	t1, err := Table1()
	if err != nil {
		t.Fatal(err)
	}
	if len(t1.Rows) != 7 {
		t.Errorf("table 1 has %d rows, want 7 modes", len(t1.Rows))
	}
	t2, err := Table2()
	if err != nil {
		t.Fatal(err)
	}
	if len(t2.Rows) != 12 {
		t.Errorf("table 2 has %d rows, want 12", len(t2.Rows))
	}
}

func TestFig4aShape(t *testing.T) {
	tab, err := Fig4a(Small)
	if err != nil {
		t.Fatal(err)
	}
	// In-cache (small) beats out-of-cache (large) for every kernel.
	last := len(tab.Rows) - 1
	for col := 1; col <= 4; col++ {
		small, large := cell(t, tab, 0, col), cell(t, tab, last, col)
		if small <= large {
			t.Errorf("%s: in-cache %.0f MB/s not above out-of-cache %.0f", tab.Columns[col], small, large)
		}
	}
}

func TestFig5LocalBeatsShared(t *testing.T) {
	shared, err := Fig5('a', Small)
	if err != nil {
		t.Fatal(err)
	}
	local, err := Fig5('c', Small)
	if err != nil {
		t.Fatal(err)
	}
	// Small-vector copy: local-cache mode wins (paper: up to 60%).
	if l, s := cell(t, local, 0, 1), cell(t, shared, 0, 1); l <= s {
		t.Errorf("local %.1f GB/s not above shared %.1f for small vectors", l, s)
	}
}

func TestFig5UnrollBeatsRolled(t *testing.T) {
	rolled, err := Fig5('c', Small)
	if err != nil {
		t.Fatal(err)
	}
	unrolled, err := Fig5('d', Small)
	if err != nil {
		t.Fatal(err)
	}
	if u, r := cell(t, unrolled, 0, 1), cell(t, rolled, 0, 1); u <= r {
		t.Errorf("unrolled %.1f GB/s not above rolled %.1f for small vectors", u, r)
	}
}

func TestFig6aSaturates(t *testing.T) {
	tab, err := Fig6a(Small)
	if err != nil {
		t.Fatal(err)
	}
	// Bandwidth grows with threads and the largest count beats one
	// thread by a wide margin.
	first, last := cell(t, tab, 0, 4), cell(t, tab, len(tab.Rows)-1, 4)
	if last < 8*first {
		t.Errorf("triad bandwidth went %.1f -> %.1f GB/s across the sweep", first, last)
	}
}

func TestFig6bReference(t *testing.T) {
	tab, err := Fig6b()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) < 5 {
		t.Fatal("reference series too short")
	}
	// Monotone growth with processors.
	prev := 0.0
	for i := range tab.Rows {
		v := cell(t, tab, i, 4)
		if v < prev {
			t.Errorf("origin triad series not monotone at row %d", i)
		}
		prev = v
	}
}

func TestFig7HardwareWins(t *testing.T) {
	tab, err := Fig7(256, Small)
	if err != nil {
		t.Fatal(err)
	}
	last := len(tab.Rows) - 1
	total := cell(t, tab, last, 1)
	stall := cell(t, tab, last, 3)
	if total >= 0 {
		t.Errorf("hw barrier total change = %+.1f%%, want negative", total)
	}
	if stall >= 0 {
		t.Errorf("hw barrier stall change = %+.1f%%, want negative", stall)
	}
}

func TestFig3Speedups(t *testing.T) {
	tab, err := Fig3(Small)
	if err != nil {
		t.Fatal(err)
	}
	// The one-thread row is all 1.00; the 16-thread row shows real
	// speedup for every kernel.
	for col := 1; col < len(tab.Columns); col++ {
		if v := cell(t, tab, 0, col); v < 0.99 || v > 1.01 {
			t.Errorf("%s: 1-thread speedup = %v", tab.Columns[col], v)
		}
		if tab.Rows[2][col] == "-" {
			continue
		}
		if v := cell(t, tab, 2, col); v < 2 {
			t.Errorf("%s: 16-thread speedup = %v, want > 2", tab.Columns[col], v)
		}
	}
}

func TestMicroBarrier(t *testing.T) {
	tab, err := MicroBarrier(Small)
	if err != nil {
		t.Fatal(err)
	}
	for i := range tab.Rows {
		hw, sw := cell(t, tab, i, 1), cell(t, tab, i, 2)
		if hw >= sw {
			t.Errorf("row %d: hw barrier (%v cycles) not cheaper than sw (%v)", i, hw, sw)
		}
	}
}

func TestBreakdownShares(t *testing.T) {
	if !obs.Enabled {
		t.Skip("counters compiled out")
	}
	tab, err := Breakdown(Small)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 5 {
		t.Fatalf("%d rows, want 3 STREAM + 2 FFT", len(tab.Rows))
	}
	// Columns: workload, engine, threads, run %, 8 reason %, 4 mem-wait
	// attribution counts, cycles.
	if len(tab.Columns) != 17 {
		t.Fatalf("%d columns, want 17", len(tab.Columns))
	}
	if got := tab.Columns[12]; got != "w:port" {
		t.Fatalf("column 12 = %q, want w:port", got)
	}
	for i := range tab.Rows {
		sum := 0.0
		for col := 3; col <= 11; col++ {
			sum += cell(t, tab, i, col)
		}
		// Run share plus every stall share covers all accounted cycles
		// (rounding each cell to 0.1% leaves at most ±0.4 slack).
		if sum < 99.5 || sum > 100.5 {
			t.Errorf("row %d shares sum to %.1f%%, want 100%%", i, sum)
		}
	}
	// The sw-barrier FFT row spends real time in barrier stalls; the
	// hw-barrier row spends none (spinning counts as run cycles).
	hwRow, swRow := 3, 4
	barrierCol := 9 // "barrier %"
	if got := tab.Columns[barrierCol]; got != "barrier %" {
		t.Fatalf("column %d = %q, want barrier %%", barrierCol, got)
	}
	if v := cell(t, tab, swRow, barrierCol); v <= 0 {
		t.Errorf("sw-barrier FFT barrier share = %v%%, want > 0", v)
	}
	if v := cell(t, tab, hwRow, barrierCol); v != 0 {
		t.Errorf("hw-barrier FFT barrier share = %v%%, want 0", v)
	}
}

func TestAppsExtension(t *testing.T) {
	tab, err := Apps(Small)
	if err != nil {
		t.Fatal(err)
	}
	// 16 threads balanced: every application shows real speedup.
	last := len(tab.Rows) - 1
	for col := 1; col <= 3; col++ {
		if v := cell(t, tab, last, col); v < 3 {
			t.Errorf("%s: 16-thread speedup = %v, want > 3", tab.Columns[col], v)
		}
	}
}

func TestFaultExtension(t *testing.T) {
	tab := checkGolden(t, "fault")
	// The healthy row is 100%; degraded rows stay above half.
	if v := cell(t, tab, 0, 5); v != 100.0 {
		t.Errorf("healthy baseline = %v%%", v)
	}
	for i := 1; i < len(tab.Rows); i++ {
		if v := cell(t, tab, i, 5); v < 40 || v > 130 {
			t.Errorf("row %d retains %v%% of bandwidth", i, v)
		}
	}
}

func TestMeshExtension(t *testing.T) {
	tab := checkGolden(t, "mesh")
	// Aggregate throughput grows with cells; comm share stays bounded.
	first, last := cell(t, tab, 0, 4), cell(t, tab, len(tab.Rows)-1, 4)
	if last < 10*first {
		t.Errorf("weak scaling failed: %v -> %v Gflop/s", first, last)
	}
	for i := 1; i < len(tab.Rows); i++ {
		if v := cell(t, tab, i, 3); v > 60 {
			t.Errorf("row %d spends %v%% on communication", i, v)
		}
	}
}

// profile, fault and mesh were the last experiments to run outside the
// job layer. Through it, their points are content-addressed like every
// other: a second render with a cache attached executes nothing and
// prints the same bytes.
func TestProfileFaultMeshWarmFromCache(t *testing.T) {
	UseCache(resultcache.OpenMemory(0))
	defer UseCache(nil)
	for _, id := range []string{"profile", "fault", "mesh"} {
		if id == "profile" && !obs.Enabled {
			continue // a note-only table under cyclops_noobs: no points
		}
		start := Runner.Stats().Executions
		_, cold := renderSmall(t, id)
		afterCold := Runner.Stats().Executions
		if afterCold == start {
			t.Errorf("%s: cold render executed nothing through the Runner", id)
		}
		_, warm := renderSmall(t, id)
		if n := Runner.Stats().Executions - afterCold; n != 0 {
			t.Errorf("%s: warm render executed %d points, want 0", id, n)
		}
		if warm != cold {
			t.Errorf("%s: warm render differs from cold\n--- cold ---\n%s--- warm ---\n%s", id, cold, warm)
		}
	}
}
