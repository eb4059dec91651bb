package serve_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"cyclops/internal/job/workloads"
	"cyclops/internal/kernel"
	"cyclops/internal/serve"
	"cyclops/internal/stream"
)

// hitCost serves the benchmark's canary STREAM spec once cold, then n
// times as a hit through Handler().ServeHTTP, and returns the heap bytes
// and allocations per hit and the reply's length. Requests and recorders
// are built before the measured loop, so only the handler is counted.
func hitCost(t *testing.T, cfg serve.Config) (bytesPerHit, allocsPerHit float64, reply int) {
	t.Helper()
	srv, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := workloads.StreamSpec(stream.Params{Kernel: stream.Triad, Threads: 8, N: 8 * 8 * 3, Local: true, Unroll: 4, Reps: 2}, kernel.Sequential)
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	post := func(req *http.Request, w *httptest.ResponseRecorder) {
		req.Header.Set("X-Cyclops-Client", "budget")
		srv.Handler().ServeHTTP(w, req)
	}
	const n = 64
	reqs := make([]*http.Request, n+2)
	recs := make([]*httptest.ResponseRecorder, n+2)
	for i := range reqs {
		reqs[i] = httptest.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader(body))
		recs[i] = httptest.NewRecorder()
		recs[i].Body.Grow(4 << 10) // the recorder's own growth is not the handler's
	}
	post(reqs[n], recs[n])     // cold: runs and stores
	post(reqs[n+1], recs[n+1]) // first hit: warms the handler's lazy state
	var warm runBody
	if err := json.Unmarshal(recs[n+1].Body.Bytes(), &warm); err != nil || recs[n+1].Code != http.StatusOK || !warm.Cached {
		t.Fatalf("second post: HTTP %d, cached %t, %v: %s", recs[n+1].Code, warm.Cached, err, recs[n+1].Body.Bytes())
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		post(reqs[i], recs[i])
	}
	runtime.ReadMemStats(&after)
	for i := 0; i < n; i++ {
		if recs[i].Code != http.StatusOK {
			t.Fatalf("hit %d: HTTP %d: %s", i, recs[i].Code, recs[i].Body.Bytes())
		}
	}
	return float64(after.TotalAlloc-before.TotalAlloc) / n, float64(after.Mallocs-before.Mallocs) / n, recs[0].Body.Len()
}

// TestHitAllocationBudget holds what a served hit costs the heap, since
// allocation sets how often the collector runs under serve_mix: a hit
// resolves its spec once, probes the cache once, observes its latency
// series without building their names and writes its reply around the
// stored bytes. A memory-tier hit measured 8,507 B in 106 allocations and
// a disk-tier hit 10,291 B in 122 (go1.24, linux/amd64); each budget is
// that plus 6-14 %, below what a second resolution, a re-encoded reply or
// per-observation series names cost.
func TestHitAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	for _, tc := range []struct {
		tier          string
		cfg           func(t *testing.T) serve.Config
		bytes, allocs float64
	}{
		{"memory", func(*testing.T) serve.Config { return serve.Config{} }, 9728, 115},
		// A memory tier smaller than the result makes every hit read,
		// verify and decode the disk entry.
		{"disk", func(t *testing.T) serve.Config { return serve.Config{CacheDir: t.TempDir(), CacheMemBytes: 64} }, 11264, 130},
	} {
		t.Run(tc.tier, func(t *testing.T) {
			b, a, reply := hitCost(t, tc.cfg(t))
			t.Logf("%s-tier hit: %.0f B and %.1f allocations for a %d-byte reply", tc.tier, b, a, reply)
			if b >= tc.bytes {
				t.Errorf("%s-tier hit allocated %.0f B, budget %.0f", tc.tier, b, tc.bytes)
			}
			if a >= tc.allocs {
				t.Errorf("%s-tier hit made %.1f allocations, budget %.0f", tc.tier, a, tc.allocs)
			}
		})
	}
}
