package stream

import (
	"strings"
	"testing"

	"cyclops/internal/arch"
	"cyclops/internal/perf"
	"cyclops/internal/prof"
)

// Cross-engine profile validation: the same STREAM triad profiled on the
// instruction-level simulator (symbols from the assembler line table)
// and on the direct-execution runtime (symbols from T.Region) must agree
// on where the time goes. Symbol names differ by construction — labels
// like "loop_4" versus region names like "triad" — so agreement is
// checked over symbol classes: the compute loop must be the hottest
// class on both engines among the top-5 symbols, with a comparable share
// of sampled cycles.
func TestProfilesAgreeAcrossEngines(t *testing.T) {
	const threads, perThread = 8, 504
	const every = 64

	// Instruction-level run, profiled.
	isaRes, err := Run(Params{
		Kernel: Triad, Threads: threads, N: perThread * threads,
		Local: true, Reps: 2, ProfileEvery: every,
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	isaRep := isaRes.Profile.Report(isaRes.Prog)

	// Timing-runtime equivalent (the DESIGN.md §5 crosscheck stream),
	// with the compute loop and barrier annotated as regions.
	m := perf.NewDefault()
	m.AttachProfile(prof.New(every))
	bar := perf.NewHWBarrier(threads)
	eaA := make([]uint32, threads)
	eaB := make([]uint32, threads)
	eaC := make([]uint32, threads)
	for p := 0; p < threads; p++ {
		g := arch.InterestGroup{Mode: arch.GroupOwn}
		eaA[p] = m.MustAlloc(8*perThread, g)
		eaB[p] = m.MustAlloc(8*perThread, g)
		eaC[p] = m.MustAlloc(8*perThread, g)
	}
	err = m.SpawnN(threads, func(th *perf.T, p int) {
		for rep := 0; rep < 2; rep++ {
			endB := th.Region("barrier")
			th.HWBarrier(bar)
			endB()
			end := th.Region("triad")
			for i := 0; i < perThread; i++ {
				b := th.LoadF64(eaB[p] + uint32(8*i))
				c := th.LoadF64(eaC[p] + uint32(8*i))
				v := th.FMA(b, c)
				th.StoreF64(eaA[p]+uint32(8*i), v)
				th.Work(4)
			}
			end()
		}
		endB := th.Region("barrier")
		th.HWBarrier(bar)
		endB()
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	perfRep := m.Prof.Report(m.Regions)

	// classify maps engine-specific symbol names onto shared classes.
	classify := func(name string) string {
		switch {
		case strings.HasPrefix(name, "loop"), name == "triad":
			return "compute"
		case strings.HasPrefix(name, "spin"), name == "barrier":
			return "sync"
		default:
			return "other"
		}
	}
	shares := func(rep *prof.Report) map[string]float64 {
		var total uint64
		for _, row := range rep.Rows {
			total += row.Cycles
		}
		out := map[string]float64{}
		for _, row := range rep.Top(5) {
			out[classify(row.Name)] += 100 * float64(row.Cycles) / float64(total)
		}
		return out
	}
	isaShares, perfShares := shares(isaRep), shares(perfRep)

	if len(isaRep.Rows) == 0 || len(perfRep.Rows) == 0 {
		t.Fatal("empty profile report")
	}
	if c := classify(isaRep.Rows[0].Name); c != "compute" {
		t.Errorf("sim hottest symbol %q classifies as %q, want the compute loop", isaRep.Rows[0].Name, c)
	}
	if c := classify(perfRep.Rows[0].Name); c != "compute" {
		t.Errorf("perf hottest symbol %q classifies as %q, want the compute loop", perfRep.Rows[0].Name, c)
	}
	if d := isaShares["compute"] - perfShares["compute"]; d < -30 || d > 30 {
		t.Errorf("compute share disagrees: sim %.1f%% vs perf %.1f%%", isaShares["compute"], perfShares["compute"])
	}
}
