package job_test

import (
	"encoding/json"
	"strings"
	"testing"

	"cyclops/internal/arch"
	"cyclops/internal/job"
	"cyclops/internal/job/workloads"
	"cyclops/internal/kernel"
	"cyclops/internal/stream"
)

// programSpec is a program spec exercising every defaultable field's
// input convenience (policy spelling, latency fold, duplicate outputs);
// Canonicalize does not decode the image, so a bare magic number will do.
func programSpec() *job.Spec {
	return &job.Spec{Workload: job.ProgramWorkload, Program: []byte("CYC1"), Policy: "blocked/8",
		Latency: "miss=48,rmiss=72", Outputs: []string{job.SnapshotOutput, job.SnapshotOutput}}
}

// Key-stability goldens, one per key schema (a sim workload, a
// direct-execution workload, a program image): the content address of a
// fixed spec must never drift silently — a changed key orphans every
// existing cache entry. An intentional change to the key schema or the
// canonical encoding comes with new goldens here, and with a
// SemanticsVersion bump when an old key could now name a different
// result.
func TestKeyStability(t *testing.T) {
	streamSpec, err := workloads.StreamSpec(stream.Params{
		Kernel: stream.Triad, Threads: 2, N: 320, Local: true, Reps: 2,
	}, kernel.Sequential)
	if err != nil {
		t.Fatal(err)
	}
	splashSpec, err := workloads.SplashSpec(workloads.SplashArgs{
		Kernel: "fft", Threads: 4, N: 256,
	})
	if err != nil {
		t.Fatal(err)
	}
	golden := []struct {
		name string
		spec *job.Spec
		want string
	}{
		{"stream-triad", streamSpec, "173bd6a5825baa10bdb2dedbc6dab4a8f03edabbf4acfce76f981452381d0ab5"},
		{"splash-fft", splashSpec, "cdfdac722ee7eea773bd34c25aac20ab81e39cd92099af5b56a72936210f1dfd"},
		{"program", programSpec(), "1ebb64c8beefd737f0608d6e7d3bf5747936fa727e038f1abcaa51b17bbad072"},
	}
	for _, g := range golden {
		t.Run(g.name, func(t *testing.T) {
			key, err := g.spec.Key()
			if err != nil {
				t.Fatal(err)
			}
			if key.String() != g.want {
				t.Errorf("key drifted:\n got %s\nwant %s\n(an intentional key-schema change needs new goldens, and a SemanticsVersion bump if an old key could now name a different result)",
					key, g.want)
			}
		})
	}
}

// Two spellings of the same run must canonicalize to the same key: the
// cache is only shared across tools if a defaulted field and its
// explicit default hash identically.
func TestEquivalentSpellingsKeyIdentically(t *testing.T) {
	terse := &job.Spec{
		Workload: "stream",
		Args:     json.RawMessage(`{"kernel":"triad","threads":2,"n":320,"local":true,"reps":2}`),
	}
	cfg := arch.Default()
	verbose := &job.Spec{
		Workload: "stream",
		Args: json.RawMessage(`{
			"n": 320, "kernel": "triad", "local": true,
			"partition": "blocked", "unroll": 1, "reps": 2,
			"placement": "sequential", "threads": 2
		}`),
		Policy: "fine",
		Config: &cfg,
	}
	tk, err := terse.Key()
	if err != nil {
		t.Fatal(err)
	}
	vk, err := verbose.Key()
	if err != nil {
		t.Fatal(err)
	}
	if tk != vk {
		t.Fatalf("equivalent spellings keyed differently:\n terse   %s\n verbose %s", tk, vk)
	}
}

func TestCanonicalizeIsIdempotent(t *testing.T) {
	spec, err := workloads.StreamSpec(stream.Params{
		Kernel: stream.Scale, Threads: 2, N: 128, Reps: 2,
	}, kernel.Sequential)
	if err != nil {
		t.Fatal(err)
	}
	c1, err := spec.Canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	c2, err := c1.Canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	if c1 != c2 {
		t.Fatal("canonicalizing a canonical spec did not pass it through")
	}
	e1, err := json.Marshal(c1)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := json.Marshal(c2)
	if err != nil {
		t.Fatal(err)
	}
	if string(e1) != string(e2) {
		t.Fatalf("canonical encodings differ:\n%s\n%s", e1, e2)
	}
}

// The latency convenience folds into the configuration: a spec with
// -lat-style input keys identically to one carrying the applied config.
func TestLatencyFoldsIntoConfig(t *testing.T) {
	base := func() *job.Spec {
		spec, err := workloads.StreamSpec(stream.Params{
			Kernel: stream.Add, Threads: 2, N: 128, Reps: 2,
		}, kernel.Sequential)
		if err != nil {
			t.Fatal(err)
		}
		return spec
	}
	viaLat := base()
	viaLat.Latency = "miss=48,rmiss=72"
	lk, err := viaLat.Key()
	if err != nil {
		t.Fatal(err)
	}

	cfg := arch.Default()
	cfg.Latencies.LocalMissLatency = 48
	cfg.Latencies.RemoteMissLatency = 72
	viaCfg := base()
	viaCfg.Config = &cfg
	ck, err := viaCfg.Key()
	if err != nil {
		t.Fatal(err)
	}
	if lk != ck {
		t.Fatalf("latency spec and pre-applied config keyed differently:\n lat %s\n cfg %s", lk, ck)
	}
	canon, err := viaLat.Canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	if canon.Latency != "" {
		t.Fatalf("canonical spec still carries Latency %q", canon.Latency)
	}

	dk, err := base().Key()
	if err != nil {
		t.Fatal(err)
	}
	if dk == lk {
		t.Fatal("slow-miss latencies keyed the same as Table 2 defaults")
	}
}

func TestCanonicalizeRejections(t *testing.T) {
	bad := []struct {
		name string
		spec job.Spec
		want string // substring the error must carry; "" = any error
	}{
		{name: "unknown workload", spec: job.Spec{Workload: "nonesuch"}},
		{name: "unknown policy", spec: job.Spec{Workload: "stream", Policy: "eager",
			Args: json.RawMessage(`{"kernel":"copy","threads":2,"n":128}`)}},
		{name: "unknown args field", spec: job.Spec{Workload: "stream",
			Args: json.RawMessage(`{"kernel":"copy","threads":2,"n":128,"warp":9}`)}},
		{name: "program image on named workload", spec: job.Spec{Workload: "stream", Program: []byte("CYC1"),
			Args: json.RawMessage(`{"kernel":"copy","threads":2,"n":128}`)}},
		{name: "balanced on named workload", spec: job.Spec{Workload: "stream", Balanced: true,
			Args: json.RawMessage(`{"kernel":"copy","threads":2,"n":128}`)}},
		{name: "max-cycles on named workload", spec: job.Spec{Workload: "stream", MaxCycles: 10,
			Args: json.RawMessage(`{"kernel":"copy","threads":2,"n":128}`)}},
		{name: "outputs on named workload", spec: job.Spec{Workload: "stream", Outputs: []string{"snapshot"},
			Args: json.RawMessage(`{"kernel":"copy","threads":2,"n":128}`)}},
		{name: "program workload without image", spec: job.Spec{Workload: "program"}},
		{name: "splash n on nbody kernel", spec: job.Spec{Workload: "splash",
			Args: json.RawMessage(`{"kernel":"barnes","threads":2,"n":64}`)}},
	}
	for _, tc := range bad {
		t.Run(tc.name, func(t *testing.T) {
			_, err := tc.spec.Canonicalize()
			if err == nil {
				t.Fatal("Canonicalize accepted the spec")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error = %v, want it to carry %q", err, tc.want)
			}
		})
	}
}
