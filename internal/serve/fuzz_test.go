package serve_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"cyclops/internal/job"
	"cyclops/internal/serve"
)

// FuzzServeRun posts arbitrary bodies to an in-process handler. Whatever
// it is sent, the handler must not panic, must answer within a minute, and
// must answer with a small body unless it ran the spec: a result, or an
// error of at most a couple of kilobytes. No body may make a workload
// panic (a 500). The seeds are TestBadSpecsAre400's bodies, a valid spec,
// an oversized FFT that once took the daemon down, a radix sort that
// leaves no room for its software barrier's flags, an unknown field with
// a long name, and an fmm spec that sets its quadtree depth.
//
// The server has no wall-clock budget yet, so a spec may ask for as long a
// run as it likes (a stream spec's reps, a barnes spec's steps). Every body
// the server would run is therefore posted with its cycle limit held to
// fuzzMaxCycles (boundCycles); a body it refuses goes as it came.
func FuzzServeRun(f *testing.F) {
	valid, err := json.Marshal(streamSpec())
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range []string{
		`{"workload":"nonesuch"}`,
		`{"workload":"stream","args":{"kernel":"warp"}}`,
		`{"workload":"stream","unknown_field":true}`,
		`{"workload":"stream","engine":"legacy"}`,
		string(valid) + " trailing-garbage",
		string(valid) + " {}",
		string(valid) + "}",
		`{"workload":"stream","args":{"kernel":"copy","threads":2,"n":128,"reps":-3}}`,
		`{"workload":"stream","args":{"kernel":"copy","threads":2,"n":128,"reps":100000000}}`,
		string(valid),
		`{"workload":"splash","args":{"kernel":"fft","threads":4,"n":262144}}`,
		`{"workload":"splash","args":{"kernel":"radix","threads":4,"barrier":"sw","n":916417}}`,
		`{"workload":"splash","args":{"kernel":"lu","threads":4,"n":32},"max_cycles":1000}`,
		`{"workload":"stream","args":{"kernel":"copy","threads":2,"n":128},"config":{"DisabledQuads":31}}`,
		`{"workload":"splash","args":{"kernel":"barnes","threads":4,"bodies":64,"steps":-5}}`,
		`{"workload":"splash","args":{"kernel":"ocean","threads":4,"n":18,"iters":-3}}`,
		`{"workload":"splash","args":{"kernel":"fmm","threads":4,"bodies":64,"levels":-1}}`,
		`{"workload":"splash","args":{"kernel":"fmm","threads":4,"bodies":64,"levels":9}}`,
		`{"workload":"splash","args":{"kernel":"fmm","threads":4,"bodies":64,"levels":3}}`,
		// An error that quotes the request is clipped.
		`{"workload":"stream","` + strings.Repeat("x", 8<<10) + `":1}`,
	} {
		f.Add([]byte(seed))
	}
	srv, err := serve.New(serve.Config{Workers: 1})
	if err != nil {
		f.Fatal(err)
	}
	h := srv.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		body = boundCycles(t, body)
		rec := httptest.NewRecorder()
		done := make(chan struct{})
		go func() {
			defer close(done)
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader(body)))
		}()
		select {
		case <-done:
		case <-time.After(time.Minute):
			t.Fatalf("no answer within a minute to %q", body)
		}
		reply := rec.Body.Bytes()
		switch rec.Code {
		case http.StatusOK:
			var rb runBody
			if err := json.Unmarshal(reply, &rb); err != nil || len(rb.Result) == 0 {
				t.Errorf("a 200 without a result (%v): %s", err, reply)
			}
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge, http.StatusUnprocessableEntity:
			if len(reply) > 2<<10 {
				t.Errorf("HTTP %d with a %d B body to a %d B request", rec.Code, len(reply), len(body))
			}
		default:
			t.Errorf("HTTP %d %s to %q", rec.Code, reply, body)
		}
	})
}

// fuzzMaxCycles bounds every run FuzzServeRun asks for. The slowest spec
// found, 126 threads of software-barrier phases, takes about half a second
// to reach it.
const fuzzMaxCycles = 200_000

// boundCycles returns body with its spec's max_cycles at most
// fuzzMaxCycles, when body is a spec the server would decode (the same
// strict decoding: no unknown field, nothing after the spec). Any other
// body is returned as it is: the server refuses it before running
// anything.
func boundCycles(t *testing.T, body []byte) []byte {
	var spec job.Spec
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if dec.Decode(&spec) != nil {
		return body
	}
	if _, err := dec.Token(); err != io.EOF {
		return body
	}
	if spec.MaxCycles != 0 && spec.MaxCycles <= fuzzMaxCycles {
		return body
	}
	spec.MaxCycles = fuzzMaxCycles
	bounded, err := json.Marshal(&spec)
	if err != nil {
		t.Fatalf("re-encoding a decoded spec: %v", err)
	}
	return bounded
}
