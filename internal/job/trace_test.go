package job_test

import (
	"encoding/json"
	"sync"
	"testing"
	"time"

	"cyclops/internal/job"
	"cyclops/internal/obs"
	"cyclops/internal/resultcache"
)

// spanNames collects the names recorded for one trace.
func spanNames(tr *obs.Tracer, trace string) map[string]int {
	names := map[string]int{}
	for _, sp := range tr.Snapshot() {
		if sp.Trace.String() == trace {
			names[sp.Name]++
		}
	}
	return names
}

// attr returns a span attribute value ("" when absent).
func attr(sp obs.Span, key string) string {
	for _, kv := range sp.Attrs {
		if kv[0] == key {
			return kv[1]
		}
	}
	return ""
}

// A traced miss records the full stage taxonomy under one run root; the
// following hit records only the lookup, flagged as a hit.
func TestRunnerSpanTaxonomy(t *testing.T) {
	r := job.NewRunner()
	c, err := resultcache.Open(t.TempDir(), job.SemanticsVersion, 0)
	if err != nil {
		t.Fatal(err)
	}
	r.Cache = c
	r.Tracer = obs.NewTracerSeeded(obs.DefaultTraceCapacity, 7)
	spec := smallStreamSpec(t)

	if _, _, err := r.RunEncodedTraced(spec, nil); err != nil {
		t.Fatal(err)
	}
	spans := r.Tracer.Snapshot()
	coldTrace := spans[0].Trace.String()
	cold := spanNames(r.Tracer, coldTrace)
	for _, name := range []string{"run", "canonicalize", "cache_lookup", "execute", "encode", "store", "cache.mem", "cache.write"} {
		if cold[name] != 1 {
			t.Errorf("cold trace records %d %q spans; want 1 (all: %v)", cold[name], name, cold)
		}
	}
	if cold["coalesce_wait"] != 0 {
		t.Errorf("uncontended run recorded a coalesce_wait span: %v", cold)
	}

	// Parentage: every span except the root has a parent in the same trace.
	ids := map[string]bool{}
	for _, sp := range spans {
		ids[sp.ID.String()] = true
	}
	for _, sp := range spans {
		if sp.Name == "run" {
			continue
		}
		if sp.Parent.IsZero() || !ids[sp.Parent.String()] {
			t.Errorf("span %q parent %s not recorded in trace", sp.Name, sp.Parent)
		}
	}

	before := r.Tracer.Recorded()
	if _, info, err := r.RunEncodedTraced(spec, nil); err != nil || !info.Cached {
		t.Fatalf("warm run: cached=%t err=%v; want hit", info.Cached, err)
	}
	var warmTrace string
	for _, sp := range r.Tracer.Snapshot()[before:] {
		if sp.Name == "run" {
			warmTrace = sp.Trace.String()
		}
		if sp.Name == "cache_lookup" && attr(sp, "outcome") != "hit" {
			t.Errorf("warm cache_lookup outcome = %q; want hit", attr(sp, "outcome"))
		}
	}
	warm := spanNames(r.Tracer, warmTrace)
	if warm["execute"] != 0 || warm["store"] != 0 {
		t.Errorf("warm trace = %v; a hit must not execute or store", warm)
	}
}

// Coalesced joiners record coalesce_wait spans — exactly starters-1 of
// them for one batch of identical specs.
func TestCoalesceWaitSpans(t *testing.T) {
	g := registerGate(t, "test-trace-coalesce")
	r := job.NewRunner()
	r.Cache = resultcache.OpenMemory(0)
	r.Tracer = obs.NewTracer(0)
	spec := &job.Spec{Workload: "test-trace-coalesce", Args: json.RawMessage(`{}`)}

	const n = 4
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, errs[i] = r.RunEncodedTraced(spec, nil)
		}(i)
	}
	<-g.started
	deadline := time.Now().Add(10 * time.Second)
	for r.Stats().Coalesced < n-1 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d duplicates coalesced", r.Stats().Coalesced, n-1)
		}
		time.Sleep(time.Millisecond)
	}
	close(g.release)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
	waits := 0
	for _, sp := range r.Tracer.Snapshot() {
		if sp.Name == "coalesce_wait" {
			waits++
		}
	}
	if want := int(r.Stats().Coalesced); waits != want {
		t.Errorf("recorded %d coalesce_wait spans; want %d (one per coalesced join)", waits, want)
	}
	if r.Stats().Executions != 1 {
		t.Errorf("executions = %d; want 1", r.Stats().Executions)
	}
}

// Instrument feeds stage spans and whole submissions into the
// registry's latency histograms: per-stage counts match the span
// counts, and run_seconds is labelled per workload.
func TestInstrumentStageHistograms(t *testing.T) {
	r := job.NewRunner()
	r.Cache = resultcache.OpenMemory(0)
	m := obs.NewMetrics()
	r.Instrument(m)
	if r.Tracer == nil {
		t.Fatal("Instrument left Tracer nil")
	}
	spec := smallStreamSpec(t)
	if _, _, err := r.RunEncodedTraced(spec, nil); err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.RunEncodedTraced(spec, nil); err != nil {
		t.Fatal(err)
	}

	wantCounts := map[string]uint64{
		"canonicalize":  2, // miss + hit both canonicalize
		"cache_lookup":  2,
		"execute":       1,
		"encode":        1,
		"store":         1,
		"coalesce_wait": 0,
	}
	for stage, want := range wantCounts {
		got := m.Histogram("job_stage_seconds", "stage", stage).Snapshot().Count
		if got != want {
			t.Errorf("job_stage_seconds{stage=%q} count = %d; want %d", stage, got, want)
		}
	}
	if got := m.Histogram("run_seconds", "workload", "stream").Snapshot().Count; got != 2 {
		t.Errorf("run_seconds{workload=stream} count = %d; want 2", got)
	}
}
