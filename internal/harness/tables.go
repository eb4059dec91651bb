package harness

import (
	"fmt"

	"cyclops/internal/arch"
)

// Table1 exercises the interest-group encoding: for each Table 1 row it
// shows which caches an example address may select.
func Table1() (*Table, error) {
	t := &Table{
		ID:      "table1",
		Title:   "Interest group encoding",
		Columns: []string{"mode", "selector", "caches selected (example addresses)"},
	}
	const nCaches, lineShift = 32, 6
	for m := arch.GroupOwn; m <= arch.GroupAll; m++ {
		sel := uint8(8)
		set := map[int]bool{}
		for line := uint32(0); line < 4096; line++ {
			ea := arch.EA(arch.InterestGroup{Mode: m, Sel: sel}, line<<lineShift)
			set[arch.CacheFor(ea, 5, nCaches, lineShift)] = true
		}
		lo, hi := 99, -1
		//detlint:sorted — min/max/len aggregation; order cannot leak
		for c := range set {
			if c < lo {
				lo = c
			}
			if c > hi {
				hi = c
			}
		}
		desc := fmt.Sprintf("%d caches in [%d,%d]", len(set), lo, hi)
		if m == arch.GroupOwn {
			desc = "accessing thread's own cache"
		}
		t.AddRow(m.String(), fmt.Sprintf("%d", sel), desc)
	}
	t.Note("placement is a pure function of the address: same EA, same cache")
	return t, nil
}

// Table2 renders the simulation parameters actually in force, mirroring
// the paper's Table 2.
func Table2() (*Table, error) {
	c := Runner.Defaults.Config
	l := c.Latencies
	t := &Table{
		ID:      "table2",
		Title:   "Simulation parameters",
		Columns: []string{"instruction type", "execution", "latency"},
	}
	rows := []struct {
		name       string
		exec, late int
	}{
		{"Branches", l.BranchExec, 0},
		{"Integer multiplication", l.IntMulExec, l.IntMulLatency},
		{"Integer divide", l.IntDivExec, 0},
		{"Floating point add, mult. and conv.", l.FPExec, l.FPLatency},
		{"Floating point divide (double prec.)", l.FPDivExec, 0},
		{"Floating point square root (double prec.)", l.FPSqrtExec, 0},
		{"Floating point multiply-and-add", l.FMAExec, l.FMALatency},
		{"Memory operation (local cache hit)", l.MemExec, l.LocalHitLatency},
		{"Memory operation (local cache miss)", l.MemExec, l.LocalMissLatency},
		{"Memory operation (remote cache hit)", l.MemExec, l.RemoteHitLatency},
		{"Memory operation (remote cache miss)", l.MemExec, l.RemoteMissLatency},
		{"All other operations", l.OtherExec, 0},
	}
	for _, r := range rows {
		t.AddRow(r.name, fmt.Sprintf("%d", r.exec), fmt.Sprintf("%d", r.late))
	}
	t.Note("units: %d threads, %d FPUs, %d D-caches (%d KB), %d I-caches (%d KB), %d memory banks (%d KB)",
		c.Threads, c.Quads(), c.Quads(), c.DCacheBytes>>10, c.ICaches(), c.ICacheBytes>>10,
		c.MemBanks, c.MemBankBytes>>10)
	t.Note("peaks: %.1f GB/s memory, %.0f GB/s cache, %.0f GFlops",
		c.PeakMemBandwidth()/1e9, c.PeakCacheBandwidth()/1e9, c.PeakFlops()/1e9)
	return t, nil
}
