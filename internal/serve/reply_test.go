package serve

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"

	"cyclops/internal/asm"
	"cyclops/internal/image"
	"cyclops/internal/job"
	"cyclops/internal/job/workloads"
	"cyclops/internal/kernel"
	"cyclops/internal/stream"
)

// runResponse is the POST /v1/run body as a struct: what writeRun must
// write, byte for byte, as json.NewEncoder(w).Encode renders it.
type runResponse struct {
	Key    string          `json:"key"`
	Trace  string          `json:"trace"`
	Cached bool            `json:"cached"`
	Result json.RawMessage `json:"result"`
}

// replySpecs is one small spec per registered workload.
func replySpecs(t *testing.T) map[string]*job.Spec {
	t.Helper()
	must := func(s *job.Spec, err error) *job.Spec {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	prog, err := asm.Assemble("\tli a0, 2\n\tli a1, 7\n\tsyscall\n\tli a0, 0\n\tsyscall\n")
	if err != nil {
		t.Fatal(err)
	}
	specs := map[string]*job.Spec{
		"stream":            must(workloads.StreamSpec(stream.Params{Kernel: stream.Triad, Threads: 2, N: 128, Reps: 2}, kernel.Sequential)),
		"splash":            must(workloads.SplashSpec(workloads.SplashArgs{Kernel: "fft", Threads: 4, N: 256})),
		"md":                must(workloads.MDSpec(workloads.MDArgs{Threads: 8, Particles: 512, Steps: 1})),
		"ray":               must(workloads.RaySpec(workloads.RayArgs{Threads: 4, Width: 16, Height: 16})),
		"microbarrier":      must(workloads.MicroBarrierSpec(workloads.MicroBarrierArgs{Threads: 8, Barrier: "hw", Phases: 4})),
		job.ProgramWorkload: {Workload: job.ProgramWorkload, Program: image.Encode(prog), Outputs: []string{job.SnapshotOutput}},
	}
	var names []string
	for name := range specs {
		names = append(names, name)
	}
	sort.Strings(names)
	if got, want := strings.Join(names, ","), strings.Join(job.WorkloadNames(), ","); got != want {
		t.Fatalf("replySpecs covers %s; registered workloads are %s", got, want)
	}
	return specs
}

// writeRun's envelope must be exactly the encoder's rendering of
// runResponse around every workload's stored result, hit or miss.
func TestWriteRunMatchesEncoder(t *testing.T) {
	r := job.NewRunner()
	for name, spec := range replySpecs(t) {
		res, err := r.ResolveTraced(spec, nil)
		if err != nil {
			t.Fatal(err)
		}
		data, _, err := r.RunResolvedTraced(&res, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, cached := range []bool{false, true} {
			rec := RunRecord{Key: res.ID, Trace: "4bf92f3577b34da6a3ce929d0e0e4736", Cached: cached}
			var want bytes.Buffer
			if err := json.NewEncoder(&want).Encode(runResponse{Key: rec.Key, Trace: rec.Trace, Cached: cached, Result: data}); err != nil {
				t.Fatal(err)
			}
			w := httptest.NewRecorder()
			writeRun(w, &rec, data)
			if !bytes.Equal(w.Body.Bytes(), want.Bytes()) {
				t.Errorf("%s, cached %t: writeRun wrote\n%s\nthe encoder writes\n%s", name, cached, w.Body.Bytes(), want.Bytes())
			}
			if ct := w.Header().Get("Content-Type"); ct != "application/json" {
				t.Errorf("%s: Content-Type %q", name, ct)
			}
		}
	}
}
