package harness

import (
	"strings"
	"testing"

	"cyclops/internal/harness/sweep"
	"cyclops/internal/obs"
)

// The profile table must be byte-identical for any sweep worker count:
// every point builds its own chip and profiler, and the profiler merges
// per-thread buckets deterministically, so -parallel must never change a
// rendered byte.
func TestProfileTableDeterministicAcrossWorkers(t *testing.T) {
	if !obs.Enabled {
		t.Skip("observability compiled out")
	}
	old := sweep.Workers()
	defer sweep.SetWorkers(old)

	render := func(workers int) string {
		sweep.SetWorkers(workers)
		tbl, err := Profile(Small)
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		tbl.Fprint(&sb)
		return sb.String()
	}
	serial := render(1)
	parallel := render(4)
	if serial != parallel {
		t.Errorf("profile table differs between 1 and 4 workers:\n--- serial ---\n%s--- parallel ---\n%s", serial, parallel)
	}
}

// The table is pinned byte-exact, and its shape checked: every workload
// contributes rows, the hottest STREAM symbol is a generated loop label,
// the hottest FFT symbol is a kernel phase, and each row's run+stall
// percentages account for the symbol.
func TestProfileTableShape(t *testing.T) {
	if !obs.Enabled {
		t.Skip("observability compiled out: the table is a note")
	}
	tbl := checkGolden(t, "profile")
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
