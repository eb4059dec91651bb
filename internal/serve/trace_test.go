package serve_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"cyclops/internal/obs"
	"cyclops/internal/serve"
)

// debugRuns decodes GET /debug/runs.
func debugRuns(t *testing.T, base string) []serve.RunRecord {
	t.Helper()
	resp, err := http.Get(base + "/debug/runs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/runs: HTTP %d", resp.StatusCode)
	}
	var body struct {
		Runs []serve.RunRecord `json:"runs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	return body.Runs
}

// A request carrying a well-formed traceparent must join that trace:
// the response header and body echo the caller's trace ID (with a fresh
// server-side span), and the run's /debug/runs record carries it too.
func TestTraceparentRoundTrip(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{})

	const callerTrace = "4bf92f3577b34da6a3ce929d0e0e4736"
	const callerSpan = "00f067aa0ba902b7"
	body, err := json.Marshal(streamSpec())
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest("POST", ts.URL+"/v1/run", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("traceparent", "00-"+callerTrace+"-"+callerSpan+"-01")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	echoed := resp.Header.Get("traceparent")
	rb := decodeRun(t, resp)

	if rb.Trace != callerTrace {
		t.Errorf("response trace = %q; want caller's %q", rb.Trace, callerTrace)
	}
	trace, span, err := obs.ParseTraceparent(echoed)
	if err != nil {
		t.Fatalf("echoed traceparent %q: %v", echoed, err)
	}
	if trace.String() != callerTrace {
		t.Errorf("echoed trace = %s; want %s", trace, callerTrace)
	}
	if span.String() == callerSpan || span.IsZero() {
		t.Errorf("echoed span = %s; want a fresh server-side span", span)
	}
	runs := debugRuns(t, ts.URL)
	if len(runs) != 1 || runs[0].Trace != callerTrace {
		t.Fatalf("debug runs = %+v; want one record with trace %s", runs, callerTrace)
	}

	// A malformed traceparent is ignored, not an error: the run succeeds
	// under a fresh server-rooted trace.
	req, err = http.NewRequest("POST", ts.URL+"/v1/run", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("traceparent", "00-zzzz-bad-01")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	rb = decodeRun(t, resp)
	if rb.Trace == callerTrace || rb.Trace == "" {
		t.Errorf("malformed traceparent produced trace %q; want a fresh one", rb.Trace)
	}
}

// The /debug/runs ring keeps only the newest RecentRuns records, newest
// first.
func TestDebugRunsRingBounds(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{RecentRuns: 4})

	for i := 0; i < 7; i++ {
		resp := postSpec(t, ts.URL, map[string]any{"workload": "nonesuch"}, fmt.Sprintf("c%d", i))
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("request %d: HTTP %d; want 400", i, resp.StatusCode)
		}
	}
	runs := debugRuns(t, ts.URL)
	if len(runs) != 4 {
		t.Fatalf("ring holds %d records; want 4", len(runs))
	}
	for i, want := range []string{"c6", "c5", "c4", "c3"} {
		if runs[i].Client != want {
			t.Errorf("runs[%d].Client = %q; want %q (newest first)", i, runs[i].Client, want)
		}
		if runs[i].Status != http.StatusBadRequest {
			t.Errorf("runs[%d].Status = %d; want 400", i, runs[i].Status)
		}
	}
}

// With a pinned tracer (fixed seed, fixed clock) the access log is
// byte-deterministic: trace IDs count up from the seed and every stamp
// and duration is exact.
func TestAccessLogGolden(t *testing.T) {
	tracer := obs.NewTracerSeeded(obs.DefaultTraceCapacity, 0x42)
	fixed := time.Date(2026, 1, 2, 3, 4, 5, 6, time.UTC)
	tracer.SetClock(func() time.Time { return fixed })

	var logBuf bytes.Buffer
	_, ts := newTestServer(t, serve.Config{AccessLog: &logBuf, Tracer: tracer})

	cold := decodeRun(t, postSpec(t, ts.URL, streamSpec(), "golden"))
	warm := decodeRun(t, postSpec(t, ts.URL, streamSpec(), "golden"))
	if cold.Cached || !warm.Cached {
		t.Fatalf("cached flags = %t/%t; want false/true", cold.Cached, warm.Cached)
	}

	lines := strings.Split(strings.TrimSuffix(logBuf.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("access log holds %d lines; want 2:\n%s", len(lines), logBuf.String())
	}
	want := []string{
		`{"time":"2026-01-02T03:04:05.000000006Z","trace":"00000000000000420000000000000001","client":"golden","key":"` + cold.Key + `","workload":"stream","status":200,"cached":false,"coalesced":false,"queue_depth":0,"queue_seconds":0,"run_seconds":0,"total_seconds":0}`,
		`{"time":"2026-01-02T03:04:05.000000006Z","trace":"00000000000000420000000000000002","client":"golden","key":"` + warm.Key + `","workload":"stream","status":200,"cached":true,"coalesced":false,"queue_depth":0,"queue_seconds":0,"run_seconds":0,"total_seconds":0}`,
	}
	for i := range want {
		if lines[i] != want[i] {
			t.Errorf("access log line %d:\n got %s\nwant %s", i+1, lines[i], want[i])
		}
	}
}

// The span tree for a cold-then-warm pair must show the full stage
// taxonomy parented under the request traces.
func TestRequestSpanTaxonomy(t *testing.T) {
	srv, ts := newTestServer(t, serve.Config{})
	cold := decodeRun(t, postSpec(t, ts.URL, streamSpec(), ""))
	warm := decodeRun(t, postSpec(t, ts.URL, streamSpec(), ""))

	byTrace := map[string]map[string]int{}
	for _, sp := range srv.Tracer().Snapshot() {
		m := byTrace[sp.Trace.String()]
		if m == nil {
			m = map[string]int{}
			byTrace[sp.Trace.String()] = m
		}
		m[sp.Name]++
	}
	coldSpans := byTrace[cold.Trace]
	for _, name := range []string{"request", "queue_wait", "canonicalize", "cache_lookup", "execute", "encode", "store"} {
		if coldSpans[name] == 0 {
			t.Errorf("cold trace is missing a %q span (got %v)", name, coldSpans)
		}
	}
	warmSpans := byTrace[warm.Trace]
	if warmSpans["request"] == 0 || warmSpans["cache_lookup"] == 0 {
		t.Errorf("warm trace = %v; want request + cache_lookup spans", warmSpans)
	}
	if warmSpans["execute"] != 0 || warmSpans["queue_wait"] != 0 {
		t.Errorf("warm trace = %v; hit must not execute or queue", warmSpans)
	}
	// The handler resolves a request once, for the hit probe and the
	// queued run alike: a miss probes the cache, queues and looks again.
	if coldSpans["canonicalize"] != 1 || coldSpans["cache_lookup"] != 2 {
		t.Errorf("cold trace = %v; want one canonicalize and two cache_lookup spans", coldSpans)
	}
	if warmSpans["canonicalize"] != 1 || warmSpans["cache_lookup"] != 1 {
		t.Errorf("warm trace = %v; want one canonicalize and one cache_lookup span", warmSpans)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if want := `job_stage_seconds_count{stage="canonicalize"} 2`; !strings.Contains(string(metrics), want+"\n") {
		t.Errorf("/metrics lacks %q: the hit's canonicalize stage is not counted", want)
	}

	// Every non-request span belongs to a request-rooted trace and has a
	// parent; request spans are the roots.
	roots := map[string]bool{}
	for _, sp := range srv.Tracer().Snapshot() {
		if sp.Name == "request" {
			if !sp.Parent.IsZero() {
				t.Errorf("request span has parent %s; want root", sp.Parent)
			}
			roots[sp.Trace.String()] = true
		}
	}
	for _, sp := range srv.Tracer().Snapshot() {
		if sp.Name == "request" {
			continue
		}
		if !roots[sp.Trace.String()] {
			t.Errorf("span %q in trace %s has no request root", sp.Name, sp.Trace)
		}
		if sp.Parent.IsZero() {
			t.Errorf("span %q has no parent", sp.Name)
		}
	}
}
