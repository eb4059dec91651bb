// Package harness regenerates every table and figure of the paper's
// evaluation (Section 3), plus the extension and design-point ablation
// experiments, from one registry (Experiments). Each experiment returns a
// Table that renders as aligned text or CSV; cmd/cyclops-bench is the CLI
// front end.
//
// Experiments run at two scales: Small keeps unit tests fast; Full uses
// the paper's parameters.
package harness

import (
	"encoding/csv"
	"fmt"
	"io"
	"strings"
)

// Scale selects experiment sizing.
type Scale int

const (
	// Small is a minutes-not-hours sizing for tests and quick looks.
	Small Scale = iota
	// Full reproduces the paper's parameters.
	Full
)

// ParseScale maps a CLI string to a Scale.
func ParseScale(s string) (Scale, error) {
	switch strings.ToLower(s) {
	case "small", "":
		return Small, nil
	case "full", "paper":
		return Full, nil
	}
	return Small, fmt.Errorf("harness: unknown scale %q (small|full)", s)
}

// Table is one rendered experiment result.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Note appends a free-form footnote.
func (t *Table) Note(format string, args ...interface{}) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Fprint renders the table as aligned text.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			w := 0
			if i < len(widths) {
				w = widths[i]
			}
			parts[i] = fmt.Sprintf("%*s", w, c)
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	line(t.Columns)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  # %s\n", n)
	}
	fmt.Fprintln(w)
}

// CSV renders the table as RFC 4180 comma-separated values: cells that
// hold a comma or a quote (the matrix's "miss=48,rmiss=72") are quoted.
func (t *Table) CSV() string {
	var sb strings.Builder
	w := csv.NewWriter(&sb)
	w.Write(t.Columns)
	w.WriteAll(t.Rows) // flushes; a strings.Builder cannot fail
	return sb.String()
}

// f1 and f2 format floats at one and two decimals.
func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }

// Experiment names one runnable reproduction.
type Experiment struct {
	ID    string
	Brief string
	Run   func(Scale) (*Table, error)
}

// Experiments lists every table and figure in paper order, then the
// extensions and the design-point ablations.
func Experiments() []Experiment {
	return []Experiment{
		{"table1", "Interest group encoding (semantic check)", func(Scale) (*Table, error) { return Table1() }},
		{"table2", "Simulation parameters", func(Scale) (*Table, error) { return Table2() }},
		{"fig3", "SPLASH-2 parallel speedups", Fig3},
		{"fig4a", "STREAM out-of-the-box, single thread", Fig4a},
		{"fig4b", "STREAM out-of-the-box, 126 independent threads", Fig4b},
		{"fig5a", "Multithreaded STREAM, blocked partitioning", fig5Variant('a')},
		{"fig5b", "Multithreaded STREAM, cyclic partitioning", fig5Variant('b')},
		{"fig5c", "Blocked partitioning with local caches", fig5Variant('c')},
		{"fig5d", "Unrolled loops, blocked, local caches", fig5Variant('d')},
		{"fig6a", "Cyclops bandwidth vs thread count (best config)", Fig6a},
		{"fig6b", "SGI Origin 3800/400 published reference", func(Scale) (*Table, error) { return Fig6b() }},
		{"fig7a", "HW vs SW barriers, 256-point FFT", fig7Variant(256)},
		{"fig7b", "HW vs SW barriers, 64K-point FFT", fig7Variant(65536)},
		{"microbarrier", "Barrier latency microbenchmark", MicroBarrier},
		{"breakdown", "Run/stall decomposition by stall reason (both engines)", Breakdown},
		{"profile", "Guest profiler hot spots by symbol (both engines)", Profile},
		{"matrix", "Issue policy × latency scenario matrix (extension)", Matrix},
		{"apps", "Section 5 target applications (extension)", Apps},
		{"fault", "Degraded-chip bandwidth (extension)", Fault},
		{"mesh", "Multi-chip weak scaling (extension)", Mesh},
		{"ablate-fpu", "Ablation: threads per FPU and data cache", ablateFPU},
		{"ablate-banks", "Ablation: memory bank count at 8 MB", ablateBanks},
		{"ablate-burst", "Ablation: DRAM burst occupancy", ablateBurst},
		{"ablate-writebuf", "Ablation: per-bank write buffer depth", ablateWriteBuf},
		{"ablate-policy", "Ablation: thread allocation policy", ablatePolicy},
		{"ablate-dcache", "Ablation: data cache size per quad", ablateDCache},
	}
}

// Lookup finds an experiment by ID.
func Lookup(id string) (Experiment, bool) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}
