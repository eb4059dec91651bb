package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"sync"

	"cyclops/internal/job"
	"cyclops/internal/job/workloads"
	"cyclops/internal/kernel"
	"cyclops/internal/obs"
	"cyclops/internal/serve"
	"cyclops/internal/stream"
)

// scratchRoot holds everything the benchmark writes: it is inside the
// checkout and named in .gitignore.
const scratchRoot = ".bench_build"

// serveWorkload is a closed loop of two clients against an in-process
// cyclops-serve over loopback HTTP. Every round (op) posts a seeded batch
// of never-seen STREAM specs (misses), a few new specs from both clients
// at once (coalesced) and many repeats of the specs primed at set-up,
// whose encoded results exceed the memory tier (memory and disk hits).
type serveWorkload struct {
	sz sizes

	dir    string
	srv    *serve.Server
	ts     *httptest.Server
	client *http.Client
	rng    *rand.Rand

	// perm walks the STREAM spec space without repeats.
	permA, permB, next uint64
	// primed is the hit working set with the result bytes first served.
	primed []primedSpec
}

type primedSpec struct {
	body   []byte
	key    string
	result string // sha of the result bytes first served
}

const (
	serveClients  = 2
	serveWorkers  = 2
	serveQueue    = 64
	serveMemBytes = 6 << 10 // less than half of the primed working set
	servePrimed   = 48
)

// The STREAM spec space the misses are drawn from: every index is a
// distinct canonical spec of a few milliseconds.
var (
	spaceThreads  = []int{1, 2, 3, 4, 6, 8, 12, 16}
	spaceLines    = []int{4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19} // cache lines per thread
	spaceReps     = []int{1, 2, 3, 4}
	spaceVariants = []stream.Params{
		{Unroll: 1},
		{Unroll: 4},
		{Unroll: 1, Local: true},
		{Unroll: 4, Local: true},
		{Unroll: 1, Partition: stream.Cyclic},
	}
	spacePlacements = []kernel.Policy{kernel.Sequential, kernel.Balanced}
)

func spaceSize() uint64 {
	return uint64(len(stream.Kernels) * len(spaceThreads) * len(spaceLines) * len(spaceReps) *
		len(spaceVariants) * len(spacePlacements))
}

// specAt decodes index i of the spec space.
func specAt(i uint64) (*job.Spec, error) {
	pick := func(n int) int { v := int(i % uint64(n)); i /= uint64(n); return v }
	p := spaceVariants[pick(len(spaceVariants))]
	p.Kernel = stream.Kernels[pick(len(stream.Kernels))]
	p.Threads = spaceThreads[pick(len(spaceThreads))]
	p.N = 8 * p.Threads * spaceLines[pick(len(spaceLines))]
	p.Reps = spaceReps[pick(len(spaceReps))]
	return workloads.StreamSpec(p, spacePlacements[pick(len(spacePlacements))])
}

// nextSpec returns the next never-seen spec of this run.
func (w *serveWorkload) nextSpec() ([]byte, string, error) {
	if w.next >= spaceSize() {
		return nil, "", fmt.Errorf("serve_mix: spec space of %d exhausted", spaceSize())
	}
	idx := (w.permA*w.next + w.permB) % spaceSize()
	w.next++
	spec, err := specAt(idx)
	if err != nil {
		return nil, "", err
	}
	return encodeSpec(spec)
}

func encodeSpec(spec *job.Spec) ([]byte, string, error) {
	key, err := spec.Key()
	if err != nil {
		return nil, "", err
	}
	body, err := json.Marshal(spec)
	return body, key.String(), err
}

// canarySpec is the one seed-independent request of every round; its
// reply bytes are pinned in golden.json. Three lines per thread keep it
// out of the spec space the misses are drawn from.
func canarySpec() (*job.Spec, error) {
	return workloads.StreamSpec(stream.Params{Kernel: stream.Triad, Threads: 8, N: 8 * 8 * 3, Local: true, Unroll: 4, Reps: 2}, kernel.Sequential)
}

func gcd(a, b uint64) uint64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// seedInputs derives the walk over the spec space and the request
// generator from the seed.
func (w *serveWorkload) seedInputs(seed uint64) {
	w.rng = rand.New(rand.NewSource(int64(seed)))
	m := spaceSize()
	w.permA = 1 + w.rng.Uint64()%(m-1)
	for gcd(w.permA, m) != 1 {
		w.permA++
	}
	w.permB = w.rng.Uint64() % m
	w.next = 0
}

func (w *serveWorkload) setup(seed uint64, tracer *obs.Tracer) (fingerprint, error) {
	w.seedInputs(seed)
	if err := os.MkdirAll(scratchRoot, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(scratchRoot, "serve-*")
	if err != nil {
		return nil, err
	}
	w.dir = dir
	w.srv, err = serve.New(serve.Config{
		CacheDir:      filepath.Join(dir, "cache"),
		CacheMemBytes: serveMemBytes,
		Workers:       serveWorkers,
		QueueLimit:    serveQueue,
		Tracer:        tracer,
	})
	if err != nil {
		return nil, err
	}
	w.ts = httptest.NewServer(w.srv.Handler())
	w.client = w.ts.Client()

	// Prime the working set: the canary first, then seeded specs and a
	// few SPLASH-2 kernels. Their first replies are the reference bytes
	// every later repeat must reproduce.
	if err := w.choosePrimed(); err != nil {
		return nil, err
	}
	for i := range w.primed {
		r, err := w.post(0, w.primed[i].body, w.primed[i].key, nil)
		if err != nil {
			return nil, err
		}
		if r.Cached {
			return nil, fmt.Errorf("serve_mix: priming spec %d was already cached", i)
		}
		w.primed[i].result = sha(r.Result)
	}
	return fingerprint{"canary.sha256": w.primed[0].result}, nil
}

// choosePrimed lists the hit working set: the canary, four SPLASH-2
// kernels and seeded STREAM specs.
func (w *serveWorkload) choosePrimed() error {
	w.primed = w.primed[:0]
	canary, err := canarySpec()
	if err != nil {
		return err
	}
	specs := []*job.Spec{canary}
	for _, a := range []workloads.SplashArgs{
		{Kernel: "fft", Threads: 4, Barrier: "hw", N: 256},
		{Kernel: "fft", Threads: 4, Barrier: "sw", N: 256},
		{Kernel: "radix", Threads: 4, Barrier: "hw", N: 1024},
		{Kernel: "lu", Threads: 4, Barrier: "hw", N: 16},
	} {
		s, err := workloads.SplashSpec(a)
		if err != nil {
			return err
		}
		specs = append(specs, s)
	}
	for _, s := range specs {
		body, key, err := encodeSpec(s)
		if err != nil {
			return err
		}
		w.primed = append(w.primed, primedSpec{body: body, key: key})
	}
	for len(w.primed) < servePrimed {
		body, key, err := w.nextSpec()
		if err != nil {
			return err
		}
		w.primed = append(w.primed, primedSpec{body: body, key: key})
	}
	return nil
}

func (w *serveWorkload) period() int { return 1 }

func (w *serveWorkload) close() {
	if w.ts != nil {
		w.ts.Close()
	}
	if w.dir != "" {
		os.RemoveAll(w.dir)
	}
}

type runReply struct {
	Key    string          `json:"key"`
	Cached bool            `json:"cached"`
	Result json.RawMessage `json:"result"`
}

// post sends one spec as the given client and checks the reply names
// the key the client computed. A non-200 (a 429 included) is an error.
func (w *serveWorkload) post(client int, body []byte, key string, sp *obs.ActiveSpan) (*runReply, error) {
	req, err := http.NewRequest(http.MethodPost, w.ts.URL+"/v1/run", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Cyclops-Client", "bench-"+strconv.Itoa(client))
	if sp != nil {
		req.Header.Set("traceparent", obs.FormatTraceparent(sp.TraceID(), sp.SpanID()))
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("serve_mix: POST /v1/run: %s: %s", resp.Status, bytes.TrimSpace(data))
	}
	var r runReply
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, err
	}
	if r.Key != key {
		return nil, fmt.Errorf("serve_mix: server keyed the spec %s, client %s", r.Key, key)
	}
	return &r, nil
}

// request is one entry of a client's script for a round.
type request struct {
	class  string // "miss", "hit" or "coalesced"
	body   []byte
	key    string
	primed int // index into primed for hits
}

// script generates one round: each client's requests in order. Misses
// and hits are shuffled together; the duplicate posts come last, in the
// same order for both clients, so that they can meet.
func (w *serveWorkload) script() ([][]request, error) {
	scripts := make([][]request, serveClients)
	for i := 0; i < w.sz.serveMisses; i++ {
		body, key, err := w.nextSpec()
		if err != nil {
			return nil, err
		}
		c := i % serveClients
		scripts[c] = append(scripts[c], request{class: "miss", body: body, key: key})
	}
	for i := 0; i < w.sz.serveHits; i++ {
		j := 0 // the canary, once per round
		if i > 0 {
			j = w.rng.Intn(len(w.primed))
		}
		c := i % serveClients
		scripts[c] = append(scripts[c], request{class: "hit", body: w.primed[j].body, key: w.primed[j].key, primed: j})
	}
	for c := range scripts {
		s := scripts[c]
		w.rng.Shuffle(len(s), func(a, b int) { s[a], s[b] = s[b], s[a] })
	}
	for i := 0; i < w.sz.serveDups; i++ {
		body, key, err := w.nextSpec()
		if err != nil {
			return nil, err
		}
		for c := range scripts {
			scripts[c] = append(scripts[c], request{class: "coalesced", body: body, key: key})
		}
	}
	return scripts, nil
}

func (w *serveWorkload) op(_ int, sp *obs.ActiveSpan) (fingerprint, error) {
	scripts, err := w.script()
	if err != nil {
		return nil, err
	}
	before := w.srv.Runner().Stats()
	var (
		wg     sync.WaitGroup
		mu     sync.Mutex
		first  error
		canary string
		dupRes = map[string]string{}
		meet   = make(chan struct{}) // pairs the clients' duplicate posts
	)
	fail := func(err error) {
		mu.Lock()
		if first == nil {
			first = err
		}
		mu.Unlock()
	}
	for c := range scripts {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for _, rq := range scripts[c] {
				if rq.class == "coalesced" {
					// Rendezvous so both clients post the spec together.
					if c == 0 {
						meet <- struct{}{}
					} else {
						<-meet
					}
				}
				csp := sp.Child("serve." + rq.class)
				r, err := w.post(c, rq.body, rq.key, csp)
				csp.End()
				if err != nil {
					fail(err)
					continue
				}
				got := sha(r.Result)
				mu.Lock()
				switch rq.class {
				case "hit":
					if !r.Cached {
						err = fmt.Errorf("serve_mix: repeat of primed spec %d was not served from the cache", rq.primed)
					} else if got != w.primed[rq.primed].result {
						err = fmt.Errorf("serve_mix: repeat of primed spec %d returned different bytes", rq.primed)
					}
					if rq.primed == 0 {
						canary = got
					}
				case "miss":
					if r.Cached {
						err = fmt.Errorf("serve_mix: never-seen spec %s was served from the cache", rq.key)
					}
				case "coalesced":
					if prev, ok := dupRes[rq.key]; ok && prev != got {
						err = fmt.Errorf("serve_mix: the two posts of spec %s returned different bytes", rq.key)
					}
					dupRes[rq.key] = got
				}
				mu.Unlock()
				if err != nil {
					fail(err)
				}
			}
		}(c)
	}
	wg.Wait()
	if first != nil {
		return nil, first
	}
	after := w.srv.Runner().Stats()
	execs := after.Executions - before.Executions
	// A duplicate post that looks the spec up just before the first
	// execution stores it, and for an execution in flight just after,
	// runs it again: the runner allows that, and the bytes still agree.
	news := uint64(w.sz.serveMisses + w.sz.serveDups)
	if execs < news || execs > news+uint64(w.sz.serveDups) {
		return nil, fmt.Errorf("serve_mix: round executed %d simulations for %d new specs", execs, news)
	}
	if after.Errors != before.Errors {
		return nil, fmt.Errorf("serve_mix: %d runs failed", after.Errors-before.Errors)
	}
	return fingerprint{"canary.sha256": canary}, nil
}
