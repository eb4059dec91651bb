package harness

import (
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
