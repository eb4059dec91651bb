package harness

import (
	"flag"
	"os"
	"path/filepath"
	"strconv"
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

// rendering is one experiment's Small table and its printed form.
type rendering struct {
	tab  *Table
	text string
}

// rendered holds the one render a test process makes of each experiment:
// the golden comparison, the shape assertion and the cross-table
// assertions (fig5c against fig5a, fig5d against fig5c) all read it.
var rendered = map[string]rendering{}

// small returns experiment id's Small table, rendering it on first use.
func small(t *testing.T, id string) rendering {
	t.Helper()
	r, ok := rendered[id]
	if !ok {
		r.tab, r.text = renderSmall(t, id)
		rendered[id] = r
	}
	return r
}

// goldenPath is where experiment id's Small table is pinned.
func goldenPath(id string) string {
	return filepath.Join("testdata", id+"_small.golden")
}

// golden compares experiment id's Small table byte for byte with
// testdata/<id>_small.golden — rewriting the file first under -update —
// and runs the experiment's shape assertion on the same render.
func golden(t *testing.T, id string) {
	t.Helper()
	r := small(t, id)
	if *update {
		if err := os.WriteFile(goldenPath(id), []byte(r.text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath(id))
	if err != nil {
		t.Fatalf("%v (run `go test -run Golden -update ./internal/harness` to create it)", err)
	}
	if r.text != string(want) {
		t.Errorf("%s table drifted from golden\n--- golden ---\n%s--- got ---\n%s", id, want, r.text)
	}
	if shape := shapes[id]; shape != nil {
		shape(t, r.tab)
	}
}

// TestGolden is the test plan for the tables: every registered experiment
// has its Small table pinned byte-exact under testdata, and the registry
// and the directory name the same set. The files are the reference the
// engine and sweep-worker equivalence tests compare against too, so they
// move only by an intentional `go test -run Golden -update
// ./internal/harness`, together with a job.SemanticsVersion bump.
func TestGolden(t *testing.T) {
	registered := map[string]bool{}
	for _, e := range Experiments() {
		registered[e.ID] = true
		t.Run(e.ID, func(t *testing.T) { golden(t, e.ID) })
	}
	files, err := filepath.Glob(goldenPath("*"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		id := strings.TrimSuffix(filepath.Base(f), "_small.golden")
		if !registered[id] {
			t.Errorf("%s pins no registered experiment", f)
		}
	}
	for id := range shapes {
		if !registered[id] {
			t.Errorf("shape assertion for %q, which is not a registered experiment", id)
		}
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

// monotone checks that column col never moves against dir (+1 rising,
// -1 falling) from one row to the next.
func monotone(t *testing.T, tab *Table, col, dir int) {
	t.Helper()
	for i := 1; i < len(tab.Rows); i++ {
		prev, cur := cell(t, tab, i-1, col), cell(t, tab, i, col)
		if float64(dir)*(cur-prev) < 0 {
			t.Errorf("%s: %s goes %v -> %v at row %d", tab.ID, tab.Columns[col], prev, cur, i)
		}
	}
}

// shapes holds, per experiment, the claim its title or note makes,
// checked on the rendered Small table: the bytes are pinned by the golden,
// the assertion says what about them must survive a deliberate re-pin.
var shapes = map[string]func(*testing.T, *Table){
	"table1": func(t *testing.T, tab *Table) {
		if len(tab.Rows) != 7 {
			t.Errorf("table 1 has %d rows, want 7 modes", len(tab.Rows))
		}
	},
	"table2": func(t *testing.T, tab *Table) {
		if len(tab.Rows) != 12 {
			t.Errorf("table 2 has %d rows, want 12", len(tab.Rows))
		}
	},
	// The one-thread row is all 1.00; the 16-thread row shows real
	// speedup for every kernel.
	"fig3": func(t *testing.T, tab *Table) {
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
	},
	// In-cache (small) beats out-of-cache (large) for every kernel.
	"fig4a": func(t *testing.T, tab *Table) {
		last := len(tab.Rows) - 1
		for col := 1; col <= 4; col++ {
			in, out := cell(t, tab, 0, col), cell(t, tab, last, col)
			if in <= out {
				t.Errorf("%s: in-cache %.0f MB/s not above out-of-cache %.0f", tab.Columns[col], in, out)
			}
		}
	},
	// Small-vector copy: local-cache mode wins (paper: up to 60%).
	"fig5c": func(t *testing.T, local *Table) {
		shared := small(t, "fig5a").tab
		if l, s := cell(t, local, 0, 1), cell(t, shared, 0, 1); l <= s {
			t.Errorf("local %.1f GB/s not above shared %.1f for small vectors", l, s)
		}
	},
	"fig5d": func(t *testing.T, unrolled *Table) {
		rolled := small(t, "fig5c").tab
		if u, r := cell(t, unrolled, 0, 1), cell(t, rolled, 0, 1); u <= r {
			t.Errorf("unrolled %.1f GB/s not above rolled %.1f for small vectors", u, r)
		}
	},
	// Bandwidth grows with threads and the largest count beats one
	// thread by a wide margin.
	"fig6a": func(t *testing.T, tab *Table) {
		first, last := cell(t, tab, 0, 4), cell(t, tab, len(tab.Rows)-1, 4)
		if last < 8*first {
			t.Errorf("triad bandwidth went %.1f -> %.1f GB/s across the sweep", first, last)
		}
	},
	// The published series grows monotonically with processors.
	"fig6b": func(t *testing.T, tab *Table) {
		if len(tab.Rows) < 5 {
			t.Fatal("reference series too short")
		}
		monotone(t, tab, 4, +1)
	},
	"fig7a": func(t *testing.T, tab *Table) {
		last := len(tab.Rows) - 1
		if total := cell(t, tab, last, 1); total >= 0 {
			t.Errorf("hw barrier total change = %+.1f%%, want negative", total)
		}
		if stall := cell(t, tab, last, 3); stall >= 0 {
			t.Errorf("hw barrier stall change = %+.1f%%, want negative", stall)
		}
	},
	"microbarrier": func(t *testing.T, tab *Table) {
		for i := range tab.Rows {
			hw, sw := cell(t, tab, i, 1), cell(t, tab, i, 2)
			if hw >= sw {
				t.Errorf("row %d: hw barrier (%v cycles) not cheaper than sw (%v)", i, hw, sw)
			}
		}
	},
	"breakdown": breakdownShape,
	"profile":   profileShape,
	"matrix":    matrixShape,
	// 16 threads balanced: every application shows real speedup.
	"apps": func(t *testing.T, tab *Table) {
		last := len(tab.Rows) - 1
		for col := 1; col <= 3; col++ {
			if v := cell(t, tab, last, col); v < 3 {
				t.Errorf("%s: 16-thread speedup = %v, want > 3", tab.Columns[col], v)
			}
		}
	},
	// The healthy row is 100%; degraded rows stay above half.
	"fault": func(t *testing.T, tab *Table) {
		if v := cell(t, tab, 0, 5); v != 100.0 {
			t.Errorf("healthy baseline = %v%%", v)
		}
		for i := 1; i < len(tab.Rows); i++ {
			if v := cell(t, tab, i, 5); v < 40 || v > 130 {
				t.Errorf("row %d retains %v%% of bandwidth", i, v)
			}
		}
	},
	// Aggregate throughput grows with cells; comm share stays bounded.
	"mesh": func(t *testing.T, tab *Table) {
		first, last := cell(t, tab, 0, 4), cell(t, tab, len(tab.Rows)-1, 4)
		if last < 10*first {
			t.Errorf("weak scaling failed: %v -> %v Gflop/s", first, last)
		}
		for i := 1; i < len(tab.Rows); i++ {
			if v := cell(t, tab, i, 3); v > 60 {
				t.Errorf("row %d spends %v%% on communication", i, v)
			}
		}
	},
	// FP-bound code pays for every extra thread on the FPU.
	"ablate-fpu": func(t *testing.T, tab *Table) { monotone(t, tab, 2, +1) },
	// Bandwidth scales with banks (until the threads run out of misses).
	"ablate-banks": func(t *testing.T, tab *Table) { monotone(t, tab, 2, +1) },
	// Longer bank occupancy per line, less bandwidth.
	"ablate-burst": func(t *testing.T, tab *Table) { monotone(t, tab, 2, -1) },
	// Shallow write buffers stall stores early.
	"ablate-writebuf": func(t *testing.T, tab *Table) { monotone(t, tab, 1, +1) },
	// Balanced allocation wins whenever the chip is not full.
	"ablate-policy": func(t *testing.T, tab *Table) {
		for i := 0; i < len(tab.Rows)-1; i++ {
			if seq, bal := cell(t, tab, i, 1), cell(t, tab, i, 2); bal < seq {
				t.Errorf("%s threads: balanced %v GB/s below sequential %v", tab.Rows[i][0], bal, seq)
			}
		}
	},
	// 504 elements/thread fit a 16 KB quad cache and overflow a 4 KB one.
	"ablate-dcache": func(t *testing.T, tab *Table) {
		if kb4, kb16 := cell(t, tab, 0, 1), cell(t, tab, 2, 1); kb16 <= kb4 {
			t.Errorf("16 KB cache %v GB/s not above 4 KB cache %v", kb16, kb4)
		}
	},
}

func breakdownShape(t *testing.T, tab *Table) {
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

// profileShape: every workload contributes rows, the hottest STREAM
// symbol is a generated loop label and the hottest FFT symbol is a
// kernel phase.
func profileShape(t *testing.T, tbl *Table) {
	perWorkload := map[string][]string{}
	for _, row := range tbl.Rows {
		perWorkload[row[0]] = append(perWorkload[row[0]], row[2])
	}
	if len(perWorkload) != 3 {
		t.Fatalf("expected 3 workloads, got %d: %v", len(perWorkload), perWorkload)
	}
	for wl, syms := range perWorkload {
		if len(syms) < 3 {
			t.Errorf("%s: only %d symbols in the table", wl, len(syms))
		}
	}
	if syms := perWorkload["STREAM Copy"]; len(syms) > 0 && !strings.HasPrefix(syms[0], "loop") {
		t.Errorf("hottest STREAM symbol = %q, want a loop label", syms[0])
	}
	for _, wl := range []string{"FFT hw barrier", "FFT sw barrier"} {
		syms := perWorkload[wl]
		if len(syms) > 0 && syms[0] != "fft_rows" {
			t.Errorf("hottest %s symbol = %q, want fft_rows", wl, syms[0])
		}
	}
}

// matrixShape checks the structural invariants of every matrix row:
// shares sum to 100%, fine-grained rows charge no switch overhead,
// switching policies at Table 2 charge some, and blocked charges at
// least as much as switch-on-miss on the same scenario point.
func matrixShape(t *testing.T, tab *Table) {
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

// The names the assertions above were first written under. Each runs its
// TestGolden entry — on the render the process already has — so a -run
// pattern or a CI log that names one still lands on the check.
func TestTable1AndTable2(t *testing.T)       { golden(t, "table1"); golden(t, "table2") }
func TestFig3Speedups(t *testing.T)          { golden(t, "fig3") }
func TestFig4aShape(t *testing.T)            { golden(t, "fig4a") }
func TestFig5LocalBeatsShared(t *testing.T)  { golden(t, "fig5c") }
func TestFig5UnrollBeatsRolled(t *testing.T) { golden(t, "fig5d") }
func TestFig6aSaturates(t *testing.T)        { golden(t, "fig6a") }
func TestFig6bReference(t *testing.T)        { golden(t, "fig6b") }
func TestFig7HardwareWins(t *testing.T)      { golden(t, "fig7a") }
func TestMicroBarrier(t *testing.T)          { golden(t, "microbarrier") }
func TestBreakdownShares(t *testing.T)       { golden(t, "breakdown") }
func TestProfileTableShape(t *testing.T)     { golden(t, "profile") }
func TestMatrixGolden(t *testing.T)          { golden(t, "matrix") }
func TestMatrixShares(t *testing.T)          { golden(t, "matrix") }
func TestAppsExtension(t *testing.T)         { golden(t, "apps") }
func TestFaultExtension(t *testing.T)        { golden(t, "fault") }
func TestMeshExtension(t *testing.T)         { golden(t, "mesh") }

func TestAblateGolden(t *testing.T) {
	for _, e := range Experiments() {
		if strings.HasPrefix(e.ID, "ablate-") {
			t.Run(e.ID, func(t *testing.T) { golden(t, e.ID) })
		}
	}
}
