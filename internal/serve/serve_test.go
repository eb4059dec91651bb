package serve_test

import (
	"bytes"
	"encoding/json"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"cyclops/internal/arch"
	"cyclops/internal/job"
	"cyclops/internal/serve"
	"cyclops/internal/timing"
)

// runBody is the decoded POST /v1/run response.
type runBody struct {
	Key    string          `json:"key"`
	Trace  string          `json:"trace"`
	Cached bool            `json:"cached"`
	Result json.RawMessage `json:"result"`
}

func newTestServer(t *testing.T, cfg serve.Config) (*serve.Server, *httptest.Server) {
	t.Helper()
	srv, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func postSpec(t *testing.T, url string, spec any, client string) *http.Response {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest("POST", url+"/v1/run", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if client != "" {
		req.Header.Set("X-Cyclops-Client", client)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeRun(t *testing.T, resp *http.Response) runBody {
	t.Helper()
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d: %s", resp.StatusCode, data)
	}
	var rb runBody
	if err := json.Unmarshal(data, &rb); err != nil {
		t.Fatal(err)
	}
	return rb
}

func streamSpec() map[string]any {
	return map[string]any{
		"workload": "stream",
		"args":     map[string]any{"kernel": "copy", "threads": 2, "n": 128, "reps": 2},
	}
}

// The daemon-wide -policy/-lat selection is the runner's Defaults:
// a request that leaves the fields blank is keyed, cached and run as the
// explicit spelling, and one that spells its own is unaffected.
func TestRunnerDefaultsFillBlankRequestFields(t *testing.T) {
	srv, ts := newTestServer(t, serve.Config{})
	srv.Runner().Defaults.Policy = timing.Blocked{Pen: 8}

	blank := decodeRun(t, postSpec(t, ts.URL, streamSpec(), ""))
	spelled := streamSpec()
	spelled["policy"] = "blocked/8"
	same := decodeRun(t, postSpec(t, ts.URL, spelled, ""))
	if same.Key != blank.Key || !same.Cached {
		t.Errorf("explicit blocked/8 (key %s, cached %t) is not the run the blank request made (key %s)",
			same.Key, same.Cached, blank.Key)
	}
	fine := streamSpec()
	fine["policy"] = "fine"
	other := decodeRun(t, postSpec(t, ts.URL, fine, ""))
	if other.Key == blank.Key || bytes.Equal(other.Result, blank.Result) {
		t.Errorf("explicit fine shares the blocked/8 default's key or result: %s", other.Result)
	}
}

func TestRunThenCacheHitThenResultEndpoint(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{})

	cold := decodeRun(t, postSpec(t, ts.URL, streamSpec(), ""))
	if cold.Cached {
		t.Fatal("cold run reported cached")
	}
	warm := decodeRun(t, postSpec(t, ts.URL, streamSpec(), ""))
	if !warm.Cached {
		t.Fatal("second identical run missed the cache")
	}
	if warm.Key != cold.Key || !bytes.Equal(warm.Result, cold.Result) {
		t.Fatalf("warm reply differs from cold:\n%s\nvs\n%s", warm.Result, cold.Result)
	}

	// The result endpoint serves the canonical bytes under the key.
	resp, err := http.Get(ts.URL + "/v1/result/" + cold.Key)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET result: HTTP %d: %s", resp.StatusCode, data)
	}
	if !bytes.Equal(data, cold.Result) {
		t.Fatalf("result endpoint bytes differ from run reply:\n%s\nvs\n%s", data, cold.Result)
	}

	// Unknown key: 404. Malformed key: 400.
	for path, want := range map[string]int{
		"/v1/result/" + strings.Repeat("0", 64): http.StatusNotFound,
		"/v1/result/nothex":                     http.StatusBadRequest,
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("GET %s: HTTP %d; want %d", path, resp.StatusCode, want)
		}
	}
}

// An entry that passes the cache's integrity check but does not decode as
// a result (one written before a Result schema change that missed a
// SemanticsVersion bump) is no result on either endpoint: GET
// /v1/result/{key} answers 404 and POST /v1/run re-executes the spec.
func TestUndecodableEntryIsAMissOnBothEndpoints(t *testing.T) {
	for _, tier := range []string{"memory", "disk"} {
		t.Run(tier, func(t *testing.T) {
			cfg := serve.Config{}
			if tier == "disk" {
				// The planted entry outgrows the memory tier.
				cfg = serve.Config{CacheDir: t.TempDir(), CacheMemBytes: 8}
			}
			srv, ts := newTestServer(t, cfg)
			body, err := json.Marshal(streamSpec())
			if err != nil {
				t.Fatal(err)
			}
			var spec job.Spec
			if err := json.Unmarshal(body, &spec); err != nil {
				t.Fatal(err)
			}
			_, key, err := srv.Runner().Resolve(&spec)
			if err != nil {
				t.Fatal(err)
			}
			if err := srv.Runner().Cache.Put(key, []byte(`{"cycles":"not a number"}`)); err != nil {
				t.Fatal(err)
			}

			resp, err := http.Get(ts.URL + "/v1/result/" + key.String())
			if err != nil {
				t.Fatal(err)
			}
			data, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusNotFound {
				t.Errorf("GET of the undecodable entry: HTTP %d: %s; want 404", resp.StatusCode, data)
			}

			run := decodeRun(t, postSpec(t, ts.URL, streamSpec(), ""))
			if run.Cached || run.Key != key.String() {
				t.Errorf("POST served key %s cached=%t; want a fresh run of %s", run.Key, run.Cached, key)
			}
			if _, err := job.DecodeResult(run.Result); err != nil {
				t.Errorf("POST result does not decode: %v", err)
			}
			if st := srv.Runner().Stats(); st.Executions != 1 || st.Hits != 0 {
				t.Errorf("runner stats %+v; want one execution and no hit", st)
			}
		})
	}
}

func TestBadSpecsAre400(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{})
	valid, err := json.Marshal(streamSpec())
	if err != nil {
		t.Fatal(err)
	}
	bad := []string{
		`{"workload":"nonesuch"}`,
		`{"workload":"stream","args":{"kernel":"warp"}}`,
		`{"workload":"stream","unknown_field":true}`,
		// The engine left the spec: a client still sending it is told
		// so, not silently run on the block engine.
		`{"workload":"stream","engine":"legacy"}`,
		// A body is one spec: a valid one followed by anything but
		// whitespace is refused, not run.
		string(valid) + " trailing-garbage",
		string(valid) + " {}",
		string(valid) + "}",
		// A rep count the program cannot time: a negative one was a
		// panic (500), a huge one an unrecoverable out-of-memory crash
		// while the program text was generated.
		`{"workload":"stream","args":{"kernel":"copy","threads":2,"n":128,"reps":-3}}`,
		`{"workload":"stream","args":{"kernel":"copy","threads":2,"n":128,"reps":100000000}}`,
		// A negative step or sweep count ran nothing and was cached as a
		// zero-cycle result; a quadtree depth the kernel refuses was a
		// run-time 422.
		`{"workload":"splash","args":{"kernel":"barnes","threads":4,"bodies":64,"steps":-5}}`,
		`{"workload":"splash","args":{"kernel":"ocean","threads":4,"n":18,"iters":-3}}`,
		`{"workload":"splash","args":{"kernel":"fmm","threads":4,"bodies":64,"levels":-1}}`,
		`{"workload":"splash","args":{"kernel":"fmm","threads":4,"bodies":64,"levels":1}}`,
		`{"workload":"splash","args":{"kernel":"fmm","threads":4,"bodies":64,"levels":9}}`,
		// FMM charge counts its default depth cannot serve: one charge,
		// and more than 1,048,576, whose default depth would be 9. Both
		// were run-time 422s.
		`{"workload":"splash","args":{"kernel":"fmm","threads":4,"bodies":1}}`,
		`{"workload":"splash","args":{"kernel":"fmm","threads":4,"bodies":1048577}}`,
	}
	for i, body := range bad {
		resp, err := http.Post(ts.URL+"/v1/run", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("bad spec %d: HTTP %d; want 400", i, resp.StatusCode)
		}
	}
	if n := metricValue(t, ts.URL, "serve_bad_requests"); n != len(bad) {
		t.Errorf("serve_bad_requests = %d, want %d", n, len(bad))
	}
}

// A spec carries a whole chip configuration, so its external memory is
// client input: a terabyte of it is a 400 from Validate — it used to be an
// allocation that took the process down — and the server keeps serving,
// including the largest legal external memory, which costs a page table.
func TestAbsurdOffChipMemoryIs400(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{})
	withOffChip := func(bytes int) map[string]any {
		cfg := arch.Default()
		cfg.OffChipBytes = bytes
		spec := streamSpec()
		spec["config"] = cfg
		return spec
	}
	resp := postSpec(t, ts.URL, withOffChip(1<<40), "")
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("1 TB of off-chip memory: HTTP %d; want 400", resp.StatusCode)
	}
	if n := metricValue(t, ts.URL, "serve_bad_requests"); n != 1 {
		t.Errorf("serve_bad_requests = %d, want 1", n)
	}
	if rb := decodeRun(t, postSpec(t, ts.URL, withOffChip(2<<30), "")); rb.Cached || len(rb.Result) == 0 {
		t.Errorf("2 GB of off-chip memory after the refusal: cached %t, result %q", rb.Cached, rb.Result)
	}
}

// A body past the largest legal program spec is refused while it is being
// read — 413, not an allocation the size of whatever the client sends —
// and is logged and counted like any other bad request.
func TestOversizedBodyIs413(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{})
	body := `{"workload":"program","program":"` + strings.Repeat("A", 16<<20) + `"}`
	resp, err := http.Post(ts.URL+"/v1/run", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var reply struct {
		Error string `json:"error"`
	}
	err = json.NewDecoder(resp.Body).Decode(&reply)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge || err != nil || reply.Error == "" {
		t.Fatalf("HTTP %d, error body %q (%v); want 413 with a JSON error", resp.StatusCode, reply.Error, err)
	}
	if runs := debugRuns(t, ts.URL); len(runs) != 1 || runs[0].Status != http.StatusRequestEntityTooLarge || runs[0].Error == "" {
		t.Errorf("run records = %+v; want one 413 with its error", runs)
	}
	if n := metricValue(t, ts.URL, "serve_bad_requests"); n != 1 {
		t.Errorf("serve_bad_requests = %d, want 1", n)
	}
}

func TestNewRefusesNonCacheDir(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("keep me"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := serve.New(serve.Config{CacheDir: dir}); err == nil {
		t.Fatal("New accepted a non-empty directory without a cache manifest")
	}
}

// Flooding a one-worker, one-slot daemon with a slow workload must
// produce 429 + Retry-After, and the queued request must still finish
// correctly.
func TestQueueFullReturns429(t *testing.T) {
	// Distinct specs (no coalescing): the args carry an ID.
	type slowArgs struct {
		ID    int  `json:"id"`
		Block bool `json:"block,omitempty"`
	}
	job.Define("test-serve-slow", nil, func(ctx *job.RunContext, a *slowArgs) (*job.Result, error) {
		if a.Block {
			<-serveSlowRelease
		}
		return &job.Result{Cycles: uint64(a.ID)}, nil
	})
	_, ts := newTestServer(t, serve.Config{Workers: 1, QueueLimit: 1})

	spec := func(id int, block bool) map[string]any {
		args := map[string]any{"id": id}
		if block {
			args["block"] = true
		}
		return map[string]any{"workload": "test-serve-slow", "args": args}
	}

	// Request 1 occupies the worker; request 2 fills the queue slot.
	type reply struct {
		rb   runBody
		code int
	}
	replies := make(chan reply, 2)
	send := func(id int, block bool) {
		resp := postSpec(t, ts.URL, spec(id, block), "flooder")
		if resp.StatusCode != http.StatusOK {
			resp.Body.Close()
			replies <- reply{code: resp.StatusCode}
			return
		}
		replies <- reply{rb: decodeRun(t, resp), code: http.StatusOK}
	}
	go send(1, true)
	waitPending(t, ts.URL, "sched_busy", 1)
	go send(2, false)
	waitPending(t, ts.URL, "sched_pending", 1)

	// Request 3 finds the queue full.
	resp := postSpec(t, ts.URL, spec(3, false), "flooder")
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third request: HTTP %d (%s); want 429", resp.StatusCode, body)
	}
	retry, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || retry < 1 {
		t.Fatalf("Retry-After = %q; want a positive integer", resp.Header.Get("Retry-After"))
	}

	close(serveSlowRelease)
	for i := 0; i < 2; i++ {
		r := <-replies
		if r.code != http.StatusOK {
			t.Fatalf("queued request failed: HTTP %d", r.code)
		}
	}
}

// serveSlowRelease unblocks the test-serve-slow workload's blocking run.
var serveSlowRelease = make(chan struct{})

// servePanicGate is the channel a test-serve-panic run with "panic" set
// waits on before it panics; each test run stores a fresh one.
var servePanicGate sync.Map

// A panicking workload answers 500, not a dead process: the request
// coalesced onto the panicking run is released with the same 500, and the
// next request on the same server is served.
func TestWorkloadPanicReturns500(t *testing.T) {
	type args struct {
		Panic bool `json:"panic,omitempty"`
	}
	if !slices.Contains(job.WorkloadNames(), "test-serve-panic") {
		job.Define("test-serve-panic", nil, func(ctx *job.RunContext, a *args) (*job.Result, error) {
			if a.Panic {
				gate, _ := servePanicGate.Load("gate")
				<-gate.(chan struct{})
				panic("workload bug")
			}
			return &job.Result{Cycles: 9}, nil
		})
	}
	release := make(chan struct{})
	servePanicGate.Store("gate", release)
	var errLog, access lockedBuffer
	defaultLog := log.Writer()
	log.SetOutput(&errLog)
	t.Cleanup(func() { log.SetOutput(defaultLog) })
	_, ts := newTestServer(t, serve.Config{Workers: 2, AccessLog: &access})
	bad := map[string]any{"workload": "test-serve-panic", "args": map[string]any{"panic": true}}

	type reply struct {
		code int
		body string
	}
	replies := make(chan reply, 2)
	send := func() {
		resp := postSpec(t, ts.URL, bad, "")
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		replies <- reply{resp.StatusCode, string(body)}
	}
	go send()
	waitPending(t, ts.URL, "job_inflight", 1)
	go send()
	waitPending(t, ts.URL, "job_coalesced", 1)
	close(release)
	for i := 0; i < 2; i++ {
		r := <-replies
		if r.code != http.StatusInternalServerError || !strings.Contains(r.body, "workload panicked: workload bug") {
			t.Errorf("reply %d: HTTP %d %s; want 500 naming the panic", i, r.code, r.body)
		}
		if len(r.body) >= 512 || strings.Contains(r.body, ".go:") || strings.Contains(r.body, "goroutine ") {
			t.Errorf("reply %d carries more than the panic value (%d B): %s", i, len(r.body), r.body)
		}
	}
	// The stack goes to the standard logger once, from the request that
	// ran the workload, and nowhere a client or the access log can read it.
	if logged := errLog.String(); strings.Count(logged, "workload panicked: workload bug\n\ngoroutine ") != 1 {
		t.Errorf("error log holds %d panic stacks, want one:\n%s", strings.Count(logged, "workload panicked"), logged)
	}
	for _, rec := range debugRuns(t, ts.URL) {
		if strings.Contains(rec.Error, ".go:") || strings.Contains(rec.Error, "goroutine ") {
			t.Errorf("/debug/runs record carries a stack: %q", rec.Error)
		}
	}
	if line := access.String(); strings.Contains(line, ".go:") || strings.Contains(line, "goroutine ") {
		t.Errorf("access log carries a stack:\n%s", line)
	}
	if n := metricValue(t, ts.URL, "job_inflight"); n != 0 {
		t.Errorf("job_inflight = %d after the panic, want 0", n)
	}
	good := map[string]any{"workload": "test-serve-panic", "args": map[string]any{}}
	if rb := decodeRun(t, postSpec(t, ts.URL, good, "")); !strings.Contains(string(rb.Result), `"cycles":9`) {
		t.Errorf("next request: %s", rb.Result)
	}
}

// A direct-execution problem too large for the chip is the request's
// fault: each kernel takes its chip memory, and fails there, before it
// builds host data of the same size, so every row answers 4xx, never a
// panic, and the server goes on serving.
func TestOversizedSplashIsRefused(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{Workers: 1})
	splash := func(args string) map[string]any {
		return map[string]any{"workload": "splash", "args": json.RawMessage(args)}
	}
	rows := []struct {
		name string
		spec map[string]any
	}{
		{"fft", splash(`{"kernel":"fft","threads":4,"n":262144}`)},
		{"fft 4^30 points", splash(`{"kernel":"fft","threads":4,"n":1152921504606846976}`)},
		{"lu", splash(`{"kernel":"lu","threads":4,"n":1024}`)},
		{"lu 2^31 square", splash(`{"kernel":"lu","threads":4,"n":2147483648}`)},
		{"ocean", splash(`{"kernel":"ocean","threads":4,"n":1024}`)},
		{"radix", splash(`{"kernel":"radix","threads":4,"n":2097152}`)},
		// Fits the chip, but leaves no room for the software barrier's
		// flags, which are taken last.
		{"radix, no room for sw barrier flags", splash(`{"kernel":"radix","threads":4,"barrier":"sw","n":916417}`)},
		{"barnes", splash(`{"kernel":"barnes","threads":4,"bodies":131072}`)},
		{"fmm", splash(`{"kernel":"fmm","threads":4,"bodies":262144}`)},
		{"md", map[string]any{"workload": "md", "args": map[string]any{"threads": 4, "particles": 1 << 20}}},
		{"ray", map[string]any{"workload": "ray", "args": map[string]any{"threads": 4, "width": 1024, "height": 1024}}},
	}
	for _, row := range rows {
		resp := postSpec(t, ts.URL, row.spec, "")
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode < 400 || resp.StatusCode >= 500 || !strings.Contains(string(body), "exceeds embedded memory") {
			t.Errorf("%s: HTTP %d %s; want 4xx refusing the allocation", row.name, resp.StatusCode, body)
		}
	}
	next := splash(`{"kernel":"fft","threads":4,"n":256}`)
	if rb := decodeRun(t, postSpec(t, ts.URL, next, "")); !strings.Contains(string(rb.Result), `"cycles":`) {
		t.Errorf("next request: %s", rb.Result)
	}
}

// waitPending polls /metrics until the named gauge reaches want.
func waitPending(t *testing.T, base, name string, want int) {
	t.Helper()
	for i := 0; i < 5000; i++ {
		if metricValue(t, base, name) == want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("%s never reached %d (now %d)", name, want, metricValue(t, base, name))
}

// scrapeMetrics fetches the /metrics text export.
func scrapeMetrics(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func metricValue(t *testing.T, base, name string) int {
	t.Helper()
	for _, line := range strings.Split(scrapeMetrics(t, base), "\n") {
		f := strings.Fields(line)
		if len(f) == 2 && f[0] == name {
			v, err := strconv.Atoi(f[1])
			if err != nil {
				t.Fatalf("metric %s: %v", name, err)
			}
			return v
		}
	}
	return -1
}

func TestMetricsAndHealthAndWorkloads(t *testing.T) {
	// A disk-backed daemon takes a cold and a warm pass over the same
	// specs: the warm pass must simulate nothing, the latency histograms
	// must have counted every request and the execute stage every
	// simulation, and the export must not move between idle scrapes.
	srv, ts := newTestServer(t, serve.Config{CacheDir: t.TempDir()})
	triad := map[string]any{
		"workload": "stream",
		"args":     map[string]any{"kernel": "triad", "threads": 4, "n": 256, "partition": "cyclic", "reps": 2},
	}
	specs := []map[string]any{streamSpec(), triad}
	for pass := 0; pass < 2; pass++ {
		for _, spec := range specs {
			if rb := decodeRun(t, postSpec(t, ts.URL, spec, "")); rb.Cached != (pass == 1) {
				t.Errorf("pass %d: cached = %t", pass, rb.Cached)
			}
		}
	}
	requests := 2 * len(specs)
	execs := int(srv.Runner().Stats().Executions)
	if execs != len(specs) {
		t.Errorf("runner executed %d simulations; want %d (the warm pass runs none)", execs, len(specs))
	}
	for name, want := range map[string]int{
		"job_executions":                                 execs,
		"job_errors":                                     0,
		`run_seconds_count{workload="stream"}`:           requests,
		"serve_request_seconds_count":                    requests,
		`job_stage_seconds_count{stage="execute"}`:       execs,
		`job_stage_seconds_count{stage="store"}`:         execs,
		`job_stage_seconds_count{stage="coalesce_wait"}`: 0,
	} {
		if v := metricValue(t, ts.URL, name); v != want {
			t.Errorf("%s = %d; want %d", name, v, want)
		}
	}
	if v := metricValue(t, ts.URL, "serve_requests"); v < requests {
		t.Errorf("serve_requests = %d; want >= %d", v, requests)
	}
	if a, b := scrapeMetrics(t, ts.URL), scrapeMetrics(t, ts.URL); a != b {
		t.Errorf("/metrics not byte-stable across idle scrapes:\n--- first ---\n%s--- second ---\n%s", a, b)
	}

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hz struct {
		Status        string  `json:"status"`
		UptimeSeconds float64 `json:"uptime_seconds"`
		Semantics     string  `json:"semantics"`
		Queue         struct {
			Pending int `json:"pending"`
			Busy    int `json:"busy"`
			Workers int `json:"workers"`
			Limit   int `json:"limit"`
		} `json:"queue"`
	}
	err = json.NewDecoder(resp.Body).Decode(&hz)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if hz.Status != "ok" || hz.Semantics != job.SemanticsVersion {
		t.Errorf("healthz = %+v; want status ok, semantics %q", hz, job.SemanticsVersion)
	}
	if hz.UptimeSeconds < 0 {
		t.Errorf("healthz uptime = %v; want >= 0", hz.UptimeSeconds)
	}
	if hz.Queue.Workers != serve.DefaultWorkers || hz.Queue.Limit != serve.DefaultQueueLimit {
		t.Errorf("healthz queue = %+v; want workers %d, limit %d", hz.Queue, serve.DefaultWorkers, serve.DefaultQueueLimit)
	}

	resp, err = http.Get(ts.URL + "/v1/workloads")
	if err != nil {
		t.Fatal(err)
	}
	var wl struct {
		Workloads []string `json:"workloads"`
		Semantics string   `json:"semantics"`
	}
	err = json.NewDecoder(resp.Body).Decode(&wl)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if wl.Semantics != job.SemanticsVersion {
		t.Errorf("semantics = %q; want %q", wl.Semantics, job.SemanticsVersion)
	}
	found := false
	for _, name := range wl.Workloads {
		if name == "stream" {
			found = true
		}
	}
	if !found {
		t.Errorf("workloads list %v is missing stream", wl.Workloads)
	}
}

// lockedBuffer is a bytes.Buffer that server goroutines write and the test
// reads.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}
