package harness

import "testing"

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

// TestAblateGolden pins the six Small-scale ablation tables byte-exact and
// checks, for each, the claim its title or note makes. The paper figures
// need no file goldens — benchmark/golden.json pins their SHA-256s on
// every benchmark run — but that file is outside what a harness change
// may extend, so the ablations carry their goldens here, regenerated
// only by an intentional `go test -run AblateGolden -update
// ./internal/harness`.
func TestAblateGolden(t *testing.T) {
	shapes := []struct {
		id    string
		check func(*testing.T, *Table)
	}{
		// FP-bound code pays for every extra thread on the FPU.
		{"ablate-fpu", func(t *testing.T, tab *Table) { monotone(t, tab, 2, +1) }},
		// Bandwidth scales with banks (until the threads run out of misses).
		{"ablate-banks", func(t *testing.T, tab *Table) { monotone(t, tab, 2, +1) }},
		// Longer bank occupancy per line, less bandwidth.
		{"ablate-burst", func(t *testing.T, tab *Table) { monotone(t, tab, 2, -1) }},
		// Shallow write buffers stall stores early.
		{"ablate-writebuf", func(t *testing.T, tab *Table) { monotone(t, tab, 1, +1) }},
		// Balanced allocation wins whenever the chip is not full.
		{"ablate-policy", func(t *testing.T, tab *Table) {
			for i := 0; i < len(tab.Rows)-1; i++ {
				if seq, bal := cell(t, tab, i, 1), cell(t, tab, i, 2); bal < seq {
					t.Errorf("%s threads: balanced %v GB/s below sequential %v", tab.Rows[i][0], bal, seq)
				}
			}
		}},
		// 504 elements/thread fit a 16 KB quad cache and overflow a 4 KB one.
		{"ablate-dcache", func(t *testing.T, tab *Table) {
			if kb4, kb16 := cell(t, tab, 0, 1), cell(t, tab, 2, 1); kb16 <= kb4 {
				t.Errorf("16 KB cache %v GB/s not above 4 KB cache %v", kb16, kb4)
			}
		}},
	}
	for _, s := range shapes {
		t.Run(s.id, func(t *testing.T) { s.check(t, checkGolden(t, s.id)) })
	}
}
